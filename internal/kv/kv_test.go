package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// stores under test, by constructor.
func allStores() map[string]func() Store {
	return map[string]func() Store{
		"hash":  func() Store { return NewHashStore() },
		"btree": func() Store { return NewBTreeStore() },
	}
}

func TestStoreBasicOps(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if _, ok := s.Get([]byte("missing")); ok {
				t.Error("Get on empty store returned ok")
			}
			s.Put([]byte("k1"), []byte("v1"))
			s.Put([]byte("k2"), []byte("v2"))
			if v, ok := s.Get([]byte("k1")); !ok || string(v) != "v1" {
				t.Errorf("Get(k1) = %q, %v", v, ok)
			}
			s.Put([]byte("k1"), []byte("v1b")) // replace
			if v, _ := s.Get([]byte("k1")); string(v) != "v1b" {
				t.Errorf("after replace Get(k1) = %q", v)
			}
			if s.Len() != 2 {
				t.Errorf("Len = %d, want 2", s.Len())
			}
			if !s.Delete([]byte("k1")) {
				t.Error("Delete(k1) = false")
			}
			if s.Delete([]byte("k1")) {
				t.Error("second Delete(k1) = true")
			}
			if s.Len() != 1 {
				t.Errorf("Len after delete = %d, want 1", s.Len())
			}
		})
	}
}

func TestStoreGetReturnsCopy(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Put([]byte("k"), []byte("abc"))
			v, _ := s.Get([]byte("k"))
			v[0] = 'X'
			if w, _ := s.Get([]byte("k")); string(w) != "abc" {
				t.Error("Get exposed internal storage")
			}
		})
	}
}

func TestStorePutCopiesInput(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			key := []byte("k")
			val := []byte("abc")
			s.Put(key, val)
			val[0] = 'X'
			key[0] = 'Y'
			if w, ok := s.Get([]byte("k")); !ok || string(w) != "abc" {
				t.Error("store retained caller slices")
			}
		})
	}
}

func TestPatchInPlace(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Put([]byte("k"), []byte("0123456789"))
			if !s.PatchInPlace([]byte("k"), 2, []byte("AB")) {
				t.Fatal("patch failed")
			}
			if v, _ := s.Get([]byte("k")); string(v) != "01AB456789" {
				t.Errorf("after patch = %q", v)
			}
			if s.PatchInPlace([]byte("k"), 9, []byte("XY")) {
				t.Error("overlong patch succeeded")
			}
			if s.PatchInPlace([]byte("nope"), 0, []byte("A")) {
				t.Error("patch on missing key succeeded")
			}
		})
	}
}

func TestReadAt(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Put([]byte("k"), []byte("hello world"))
			buf := make([]byte, 5)
			if !s.ReadAt([]byte("k"), 6, buf) || string(buf) != "world" {
				t.Errorf("ReadAt = %q", buf)
			}
			if s.ReadAt([]byte("k"), 8, buf) {
				t.Error("out-of-range ReadAt succeeded")
			}
			if s.ReadAt([]byte("nope"), 0, buf) {
				t.Error("ReadAt on missing key succeeded")
			}
		})
	}
}

func TestAppendValue(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.AppendValue([]byte("k"), []byte("ab")) // creates
			s.AppendValue([]byte("k"), []byte("cd"))
			if v, _ := s.Get([]byte("k")); string(v) != "abcd" {
				t.Errorf("after appends = %q", v)
			}
			if s.Len() != 1 {
				t.Errorf("Len = %d", s.Len())
			}
		})
	}
}

func TestForEachVisitsAll(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			want := map[string]string{}
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%03d", i)
				v := fmt.Sprintf("val-%d", i)
				want[k] = v
				s.Put([]byte(k), []byte(v))
			}
			got := map[string]string{}
			s.ForEach(func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("visited %d records, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("got[%q] = %q, want %q", k, got[k], v)
				}
			}
		})
	}
}

func TestForEachEarlyStop(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			for i := 0; i < 100; i++ {
				s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
			}
			n := 0
			s.ForEach(func(k, v []byte) bool {
				n++
				return n < 10
			})
			if n != 10 {
				t.Errorf("visited %d, want 10", n)
			}
		})
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						k := []byte(fmt.Sprintf("w%d-k%d", w, i))
						s.Put(k, []byte("v"))
						if _, ok := s.Get(k); !ok {
							t.Errorf("lost own write %s", k)
							return
						}
						if i%3 == 0 {
							s.Delete(k)
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestBTreeAscendOrder checks sorted iteration against sort.Strings.
func TestBTreeAscendOrder(t *testing.T) {
	s := NewBTreeStore()
	rng := rand.New(rand.NewSource(1))
	var keys []string
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k-%08x", rng.Uint32())
		keys = append(keys, k)
		s.Put([]byte(k), []byte("v"))
	}
	sort.Strings(keys)
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			uniq = append(uniq, k)
		}
	}
	var got []string
	s.ForEach(func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != len(uniq) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(uniq))
	}
	for i := range got {
		if got[i] != uniq[i] {
			t.Fatalf("order mismatch at %d: %q vs %q", i, got[i], uniq[i])
		}
	}
}

func TestBTreeAscendRange(t *testing.T) {
	s := NewBTreeStore()
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	var got []string
	s.AscendRange([]byte("k10"), []byte("k20"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != "k10" || got[9] != "k19" {
		t.Errorf("range [k10,k20) = %v", got)
	}
}

func TestBTreeAscendPrefix(t *testing.T) {
	s := NewBTreeStore()
	s.Put([]byte("/a/x"), []byte("1"))
	s.Put([]byte("/a/y"), []byte("2"))
	s.Put([]byte("/ab"), []byte("3"))
	s.Put([]byte("/b/z"), []byte("4"))
	var got []string
	s.AscendPrefix([]byte("/a/"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 2 || got[0] != "/a/x" || got[1] != "/a/y" {
		t.Errorf("prefix scan = %v", got)
	}
}

func TestBTreeMovePrefix(t *testing.T) {
	s := NewBTreeStore()
	s.Put([]byte("/old/a"), []byte("1"))
	s.Put([]byte("/old/b/c"), []byte("2"))
	s.Put([]byte("/older"), []byte("3")) // shares bytes but not the prefix "/old/"
	s.Put([]byte("/other"), []byte("4"))
	n := s.MovePrefix([]byte("/old/"), []byte("/new/"))
	if n != 2 {
		t.Fatalf("moved %d, want 2", n)
	}
	if _, ok := s.Get([]byte("/old/a")); ok {
		t.Error("old key survived move")
	}
	if v, ok := s.Get([]byte("/new/b/c")); !ok || string(v) != "2" {
		t.Errorf("moved key = %q, %v", v, ok)
	}
	if _, ok := s.Get([]byte("/older")); !ok {
		t.Error("unrelated key /older vanished")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
}

func TestBTreeMovePrefixOverlap(t *testing.T) {
	// Moving /a/ -> /a/b/ nests the old range inside the new one.
	s := NewBTreeStore()
	s.Put([]byte("/a/x"), []byte("1"))
	s.Put([]byte("/a/y"), []byte("2"))
	n := s.MovePrefix([]byte("/a/"), []byte("/a/b/"))
	if n != 2 {
		t.Fatalf("moved %d, want 2", n)
	}
	if v, ok := s.Get([]byte("/a/b/x")); !ok || string(v) != "1" {
		t.Errorf("nested move lost /a/b/x: %q %v", v, ok)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc", "abd"},
		{"a\xff", "b"},
		{"/dir/", "/dir0"},
	}
	for _, c := range cases {
		got := PrefixSuccessor([]byte(c.in))
		if string(got) != c.want {
			t.Errorf("PrefixSuccessor(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if PrefixSuccessor([]byte{0xff, 0xff}) != nil {
		t.Error("PrefixSuccessor(all-FF) != nil")
	}
}

// TestBTreeModelQuick drives the B+ tree against a map model with random
// put/delete sequences, then verifies contents and iteration order.
func TestBTreeModelQuick(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val uint16
		Del bool
	}) bool {
		s := NewBTreeStore()
		model := map[string]string{}
		for _, op := range ops {
			k := fmt.Sprintf("key-%03d", op.Key)
			if op.Del {
				delete(model, k)
				s.Delete([]byte(k))
			} else {
				v := fmt.Sprintf("v%d", op.Val)
				model[k] = v
				s.Put([]byte(k), []byte(v))
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := s.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		var prev []byte
		ordered := true
		s.ForEach(func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				ordered = false
				return false
			}
			prev = append(prev[:0], k...)
			return true
		})
		return ordered
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestBTreeDeleteHeavy forces many splits and merges: insert a large sorted
// range, delete most of it in a shuffled order, verify the rest.
func TestBTreeDeleteHeavy(t *testing.T) {
	s := NewBTreeStore()
	const n = 5000
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for _, i := range perm[:n*9/10] {
		if !s.Delete([]byte(fmt.Sprintf("k%06d", i))) {
			t.Fatalf("delete k%06d failed", i)
		}
	}
	kept := map[int]bool{}
	for _, i := range perm[n*9/10:] {
		kept[i] = true
	}
	if s.Len() != len(kept) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(kept))
	}
	for i := range kept {
		v, ok := s.Get([]byte(fmt.Sprintf("k%06d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("survivor k%06d = %q, %v", i, v, ok)
		}
	}
	// Iteration must still be sorted and complete.
	count := 0
	var prev []byte
	s.ForEach(func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("unsorted after deletes at %q", k)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != len(kept) {
		t.Fatalf("iterated %d, want %d", count, len(kept))
	}
}

func TestInstrumentedCountsAndVirtualTime(t *testing.T) {
	s := Instrument(NewBTreeStore(), SSD)
	s.Put([]byte("a"), []byte("1"))
	s.Get([]byte("a"))
	s.Get([]byte("b"))
	s.Delete([]byte("a"))
	c := s.Counters()
	if c.Puts.Load() != 1 || c.Gets.Load() != 2 || c.Deletes.Load() != 1 {
		t.Errorf("counters: puts=%d gets=%d dels=%d", c.Puts.Load(), c.Gets.Load(), c.Deletes.Load())
	}
	want := SSD.WriteCost*2 + SSD.ReadCost*2
	if got := s.VirtualTime(); got != want {
		t.Errorf("VirtualTime = %v, want %v", got, want)
	}
	s.ResetVirtualTime()
	if s.VirtualTime() != 0 {
		t.Error("ResetVirtualTime did not zero the clock")
	}
}

func TestInstrumentedOrderedOps(t *testing.T) {
	s := Instrument(NewBTreeStore(), RAM)
	if !s.IsOrdered() {
		t.Fatal("btree-backed Instrumented not ordered")
	}
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("p/k%d", i)), []byte("v"))
	}
	n := 0
	s.AscendPrefix([]byte("p/"), func(k, v []byte) bool { n++; return true })
	if n != 10 {
		t.Errorf("prefix scan visited %d", n)
	}
	moved := s.MovePrefix([]byte("p/"), []byte("q/"))
	if moved != 10 {
		t.Errorf("MovePrefix = %d", moved)
	}
	if s.Counters().Scans.Load() < 10 {
		t.Error("scan counter not advanced")
	}
	hs := Instrument(NewHashStore(), RAM)
	if hs.IsOrdered() {
		t.Error("hash-backed Instrumented claims ordered")
	}
}

func TestCountersSnapshot(t *testing.T) {
	s := Instrument(NewBTreeStore(), RAM)
	s.Put([]byte("a"), []byte("12345"))
	s.Put([]byte("b"), []byte("xy"))
	s.Get([]byte("a"))
	s.PatchInPlace([]byte("a"), 1, []byte("AB"))
	s.AppendValue([]byte("b"), []byte("z"))
	s.Delete([]byte("b"))
	n := 0
	s.ForEach(func(k, v []byte) bool { n++; return true })

	snap := s.Counters().Snapshot()
	if snap.Puts != 2 || snap.Gets != 1 || snap.Deletes != 1 ||
		snap.Patches != 1 || snap.Appends != 1 || snap.Scans != uint64(n) {
		t.Errorf("snapshot = %+v (scans want %d)", snap, n)
	}
	if got, want := snap.Writes(), uint64(2+1+1); got != want {
		t.Errorf("Writes() = %d, want %d", got, want)
	}
	if snap.BytesWritten != 5+2+2+1 {
		t.Errorf("BytesWritten = %d, want 10", snap.BytesWritten)
	}
	if got := snap.Bytes(); got != snap.BytesRead+snap.BytesWritten {
		t.Errorf("Bytes() = %d", got)
	}
	// A snapshot is a value copy: later store activity must not move it.
	s.Put([]byte("c"), []byte("v"))
	if snap.Puts != 2 {
		t.Error("snapshot mutated by later store activity")
	}
}

// TestAppendValueAmortised pins AppendValue to the appended bytes: 1,000
// dirent-sized appends onto a 16k-entry value allocate less than 4x what
// they append. The value's one geometric growth off its exact-size Put
// happens before the measurement; a whole-value copy per append would cost
// ~0.5 MB each.
func TestAppendValueAmortised(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			key := []byte("list")
			ent := bytes.Repeat([]byte{9}, 30)
			s.Put(key, bytes.Repeat(ent, 16384))
			s.AppendValue(key, ent)
			const appends = 1000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < appends; i++ {
				s.AppendValue(key, ent)
			}
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*appends*len(ent)); got >= limit {
				t.Errorf("%d appends of %d B allocated %d B, want < %d", appends, len(ent), got, limit)
			}
			if v, _ := s.Get(key); len(v) != (16384+1+appends)*len(ent) {
				t.Errorf("value length %d after appends", len(v))
			}
		})
	}
}

// TestScanValuesCapClipped guards the aliasing rule AppendValue's in-place
// growth needs: a scan callback's value is capacity-clipped, so appending to
// a kept one reallocates rather than writing into the store's spare
// capacity. It runs through both wrappers the servers use.
func TestScanValuesCapClipped(t *testing.T) {
	wraps := map[string]func(*testing.T, Store) Store{
		"instrumented": func(_ *testing.T, s Store) Store { return Instrument(s, RAM) },
		"persistent": func(t *testing.T, s Store) Store {
			p, err := OpenPersistent(t.TempDir(), s)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		},
	}
	type scan func(s Store, fn func(k, v []byte) bool)
	scans := map[string]scan{"ForEach": func(s Store, fn func(k, v []byte) bool) { s.ForEach(fn) }}
	scans["AscendRange"] = func(s Store, fn func(k, v []byte) bool) { s.(Ordered).AscendRange(nil, nil, fn) }
	for engine, mk := range allStores() {
		for wrap, wrapFn := range wraps {
			for scanName, scanFn := range scans {
				if scanName == "AscendRange" && engine == "hash" {
					continue // the hash engine is unordered
				}
				t.Run(engine+"/"+wrap+"/"+scanName, func(t *testing.T) {
					s := wrapFn(t, mk())
					key := []byte("k")
					s.AppendValue(key, []byte("abc"))
					s.AppendValue(key, []byte("de"))
					var kept []byte
					scanFn(s, func(k, v []byte) bool { kept = v; return false })
					s.AppendValue(key, []byte("fg"))
					grown := append(kept, 'X', 'Y')
					if v, _ := s.Get(key); string(v) != "abcdefg" {
						t.Errorf("Get = %q, want %q", v, "abcdefg")
					}
					if string(kept) != "abcde" || string(grown) != "abcdeXY" {
						t.Errorf("kept %q grown %q", kept, grown)
					}
				})
			}
		}
	}
}
