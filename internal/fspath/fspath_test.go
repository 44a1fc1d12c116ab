package fspath

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClean(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"/", "/", true},
		{"//", "/", true},
		{"/a", "/a", true},
		{"/a/", "/a", true},
		{"/a//b", "/a/b", true},
		{"/a/./b", "/a/b", true},
		{"/a/b/..", "/a", true},
		{"/a/../b", "/b", true},
		{"/..", "", false},
		{"/a/../../b", "", false},
		{"", "", false},
		{"relative", "", false},
		{"/a/b/c/", "/a/b/c", true},
	}
	for _, c := range cases {
		got, err := Clean(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Clean(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("Clean(%q) = %q, want error", c.in, got)
		}
	}
}

// cleanModel is Clean's split-and-join algorithm without the canonical
// fast path: the model FuzzClean holds Clean to.
func cleanModel(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", ErrInvalidPath
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, s := range parts {
		switch s {
		case "", ".":
		case "..":
			if len(out) == 0 {
				return "", ErrInvalidPath
			}
			out = out[:len(out)-1]
		default:
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(out, "/"), nil
}

func FuzzClean(f *testing.F) {
	for _, p := range []string{"/", "//", "/a", "/a/", "/a//b", "/a/./b", "/a/b/..",
		"/..", "/.a/..b/...", "/a/.", "", "a", "/a/b/c", "/./", "/a\x00/b"} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		got, err := Clean(p)
		want, werr := cleanModel(p)
		if got != want || (err == nil) != (werr == nil) {
			t.Fatalf("Clean(%q) = %q, %v; model %q, %v", p, got, err, want, werr)
		}
	})
}

// TestCleanCanonicalNoAlloc: a path that is already canonical comes back
// as is — the common case on every server, whose clients clean first.
func TestCleanCanonicalNoAlloc(t *testing.T) {
	for _, p := range []string{"/", "/a", "/dir_tree/d0001/d0002/d0003", "/.a/..b/..."} {
		p := strings.Clone(p)
		var got string
		if a := testing.AllocsPerRun(100, func() { got, _ = Clean(p) }); a != 0 {
			t.Errorf("Clean(%q): %v allocs, want 0", p, a)
		}
		if got != p {
			t.Errorf("Clean(%q) = %q", p, got)
		}
	}
}

func TestCleanIdempotent(t *testing.T) {
	f := func(segs []string) bool {
		p := "/"
		for _, s := range segs {
			p += s + "/"
		}
		c1, err := Clean(p)
		if err != nil {
			return true // invalid inputs are fine
		}
		c2, err := Clean(c1)
		return err == nil && c1 == c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplit(t *testing.T) {
	cases := []struct{ in, dir, base string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c", "/a/b", "c"},
	}
	for _, c := range cases {
		dir, base := Split(c.in)
		if dir != c.dir || base != c.base {
			t.Errorf("Split(%q) = %q, %q; want %q, %q", c.in, dir, base, c.dir, c.base)
		}
	}
}

func TestAncestors(t *testing.T) {
	if got := Ancestors("/"); got != nil {
		t.Errorf("Ancestors(/) = %v", got)
	}
	got := Ancestors("/a/b/c")
	want := []string{"/", "/a", "/a/b"}
	if len(got) != len(want) {
		t.Fatalf("Ancestors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ancestors[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDepth(t *testing.T) {
	cases := map[string]int{"/": 0, "/a": 1, "/a/b": 2, "/a/b/c": 3}
	for p, d := range cases {
		if got := Depth(p); got != d {
			t.Errorf("Depth(%q) = %d, want %d", p, got, d)
		}
	}
}

func TestIsAncestorOf(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"/", "/a", true},
		{"/", "/", false},
		{"/a", "/a", false},
		{"/a", "/a/b", true},
		{"/a", "/ab", false},
		{"/a/b", "/a", false},
	}
	for _, c := range cases {
		if got := IsAncestorOf(c.a, c.b); got != c.want {
			t.Errorf("IsAncestorOf(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJoin(t *testing.T) {
	if got := Join("/", "a"); got != "/a" {
		t.Errorf("Join(/, a) = %q", got)
	}
	if got := Join("/a", "b"); got != "/a/b" {
		t.Errorf("Join(/a, b) = %q", got)
	}
}

func TestValidName(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "a/b"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
	for _, good := range []string{"a", "file.txt", "..."} {
		if !ValidName(good) {
			t.Errorf("ValidName(%q) = false", good)
		}
	}
}

func TestAncestorsConsistentWithSplit(t *testing.T) {
	f := func(depthSeed uint8) bool {
		p := "/"
		depth := int(depthSeed%6) + 1
		for i := 0; i < depth; i++ {
			p = Join(p, "d")
		}
		anc := Ancestors(p)
		if len(anc) != depth {
			return false
		}
		dir, _ := Split(p)
		return anc[len(anc)-1] == dir
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
