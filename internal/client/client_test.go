package client

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"locofs/internal/dms"
	"locofs/internal/dms/partition"
	"locofs/internal/fms"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/rpc"
	"locofs/internal/wire"
)

// soloDMS puts d on an rpc.Server the way every deployment does: through a
// partition node, here running the solo map.
func soloDMS(d *dms.Server) func(*rpc.Server) {
	return partition.New(partition.Config{DMS: d}).Attach
}

// testCluster wires a minimal DMS/FMS/OSS deployment directly (without the
// core package, which has its own tests) so the client package can be
// tested in isolation.
func testCluster(t *testing.T, fmsCount int) (*netsim.Network, Config) {
	t.Helper()
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	serve := func(addr string, attach func(*rpc.Server)) {
		rs := rpc.NewServer()
		attach(rs)
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go rs.Serve(l)
		t.Cleanup(rs.Shutdown)
	}
	serve("dms", soloDMS(dms.New(dms.Options{})))
	cfg := Config{Dialer: n, DMSAddr: "dms"}
	for i := 0; i < fmsCount; i++ {
		addr := fmt.Sprintf("fms-%d", i)
		serve(addr, fms.New(fms.Options{ServerID: uint32(i + 1)}).Attach)
		cfg.FMSAddrs = append(cfg.FMSAddrs, addr)
	}
	serve("oss", objstore.New(nil).Attach)
	cfg.OSSAddrs = []string{"oss"}
	return n, cfg
}

func dialTest(t *testing.T, cfg Config, opts ...DialOption) *Client {
	t.Helper()
	c, err := Dial(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(Config{}); err == nil {
		t.Error("Dial with nil dialer succeeded")
	}
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	if _, err := Dial(Config{Dialer: n}); err == nil {
		t.Error("Dial without FMS/OSS succeeded")
	}
	if _, err := Dial(Config{Dialer: n, DMSAddr: "nowhere",
		FMSAddrs: []string{"x"}, OSSAddrs: []string{"y"}}); err == nil {
		t.Error("Dial to missing servers succeeded")
	}
}

func TestInvalidPaths(t *testing.T) {
	_, cfg := testCluster(t, 1)
	c := dialTest(t, cfg)
	for _, op := range []struct {
		name string
		fn   func(p string) error
	}{
		{"mkdir", func(p string) error { return c.Mkdir(p, 0o755) }},
		{"create", func(p string) error { return c.Create(p, 0o644) }},
		{"remove", func(p string) error { return c.Remove(p) }},
		{"rmdir", func(p string) error { return c.Rmdir(p) }},
		{"chmod", func(p string) error { return c.Chmod(p, 0o600) }},
		{"statfile", func(p string) error { _, err := c.StatFile(p); return err }},
	} {
		for _, bad := range []string{"", "relative", "/.."} {
			if err := op.fn(bad); wire.StatusOf(err) != wire.StatusInval {
				t.Errorf("%s(%q) = %v, want EINVAL", op.name, bad, err)
			}
		}
	}
	// Operating on "/" as a file is invalid.
	if err := c.Create("/", 0o644); wire.StatusOf(err) != wire.StatusInval {
		t.Errorf("create(/) = %v, want EINVAL", err)
	}
}

func TestPathNormalizationAliases(t *testing.T) {
	_, cfg := testCluster(t, 2)
	c := dialTest(t, cfg)
	if err := c.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/a/f", 0o644); err != nil {
		t.Fatal(err)
	}
	// All spellings of the same path resolve identically.
	for _, alias := range []string{"/a/f", "//a//f", "/a/./f", "/a/b/../f"} {
		if _, err := c.StatFile(alias); err != nil {
			t.Errorf("StatFile(%q) = %v", alias, err)
		}
	}
	// And the aliased create is EEXIST, not a second file.
	if err := c.Create("/a//f", 0o644); wire.StatusOf(err) != wire.StatusExist {
		t.Errorf("aliased create = %v, want EEXIST", err)
	}
}

func TestFileHandleSemantics(t *testing.T) {
	_, cfg := testCluster(t, 1)
	c := dialTest(t, cfg)
	c.Mkdir("/d", 0o755)
	c.Create("/d/f", 0o644)

	ro, err := c.Open("/d/f", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.WriteAt([]byte("x"), 0); wire.StatusOf(err) != wire.StatusPerm {
		t.Errorf("write on read-only handle = %v, want EPERM", err)
	}
	ro.Close()
	if _, err := ro.ReadAt(make([]byte, 1), 0); wire.StatusOf(err) != wire.StatusInval {
		t.Errorf("read after close = %v, want EINVAL", err)
	}

	rw, err := c.Open("/d/f", true)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if n, err := rw.WriteAt(nil, 0); n != 0 || err != nil {
		t.Errorf("empty write = %d, %v", n, err)
	}
	data := []byte("abc")
	if _, err := rw.WriteAt(data, 5); err != nil {
		t.Fatal(err)
	}
	if rw.Size() != 8 {
		t.Errorf("Size = %d, want 8", rw.Size())
	}
	// Reads from offset 0 see the hole as zeros.
	buf := make([]byte, 8)
	if n, err := rw.ReadAt(buf, 0); err != nil || n != 8 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 0, 0, 'a', 'b', 'c'}) {
		t.Errorf("buf = %v", buf)
	}
	if _, err := c.Open("/d/missing", false); wire.StatusOf(err) != wire.StatusNotFound {
		t.Errorf("open missing = %v, want ENOENT", err)
	}
}

func TestStatFallsBackToDir(t *testing.T) {
	_, cfg := testCluster(t, 2)
	c := dialTest(t, cfg)
	c.Mkdir("/onlydir", 0o755)
	a, err := c.Stat("/onlydir")
	if err != nil || !a.IsDir {
		t.Errorf("Stat(dir) = %+v, %v", a, err)
	}
	if _, err := c.Stat("/neither"); wire.StatusOf(err) != wire.StatusNotFound {
		t.Errorf("Stat(missing) = %v, want ENOENT", err)
	}
	if a, err := c.Stat("/"); err != nil || !a.IsDir {
		t.Errorf("Stat(/) = %+v, %v", a, err)
	}
}

func TestRenameFileErrors(t *testing.T) {
	_, cfg := testCluster(t, 4)
	c := dialTest(t, cfg)
	c.Mkdir("/a", 0o755)
	c.Mkdir("/b", 0o755)
	c.Create("/a/f", 0o644)
	c.Create("/b/exists", 0o644)
	if err := c.RenameFile("/a/missing", "/b/x"); wire.StatusOf(err) != wire.StatusNotFound {
		t.Errorf("rename missing = %v, want ENOENT", err)
	}
	if err := c.RenameFile("/a/f", "/b/exists"); wire.StatusOf(err) != wire.StatusExist {
		t.Errorf("rename onto existing = %v, want EEXIST", err)
	}
	// The failed rename must not have destroyed the source.
	if _, err := c.StatFile("/a/f"); err != nil {
		t.Errorf("source vanished after failed rename: %v", err)
	}
}

func TestChmodDirInvalidatesCache(t *testing.T) {
	_, cfg := testCluster(t, 1)
	c := dialTest(t, cfg)
	c.Mkdir("/d", 0o755)
	c.Create("/d/warm", 0o644) // caches /d
	if err := c.ChmodDir("/d", 0o700); err != nil {
		t.Fatal(err)
	}
	// Next op re-fetches the directory (fresh mode visible).
	a, err := c.StatDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode&0o777 != 0o700 {
		t.Errorf("mode after ChmodDir = %o (stale cache?)", a.Mode&0o777)
	}
}

func TestCostMonotonic(t *testing.T) {
	_, cfg := testCluster(t, 1)
	cfg.Link = netsim.LinkConfig{RTT: time.Millisecond}
	c := dialTest(t, cfg)
	c0 := c.Cost()
	c.Mkdir("/x", 0o755)
	c1 := c.Cost()
	if c1 <= c0 {
		t.Errorf("Cost did not grow: %v -> %v", c0, c1)
	}
	if c1-c0 < time.Millisecond {
		t.Errorf("mkdir cost %v < 1 RTT", c1-c0)
	}
}

func TestReaddirEmptyAndRoot(t *testing.T) {
	_, cfg := testCluster(t, 2)
	c := dialTest(t, cfg)
	ents, err := c.Readdir("/")
	if err != nil || len(ents) != 0 {
		t.Errorf("Readdir(empty /) = %v, %v", ents, err)
	}
	c.Mkdir("/z", 0o755)
	ents, err = c.Readdir("/")
	if err != nil || len(ents) != 1 || ents[0].Name != "z" || !ents[0].IsDir {
		t.Errorf("Readdir(/) = %v, %v", ents, err)
	}
	ents, err = c.Readdir("/z")
	if err != nil || len(ents) != 0 {
		t.Errorf("Readdir(empty dir) = %v, %v", ents, err)
	}
}

// TestReaddirStaleListingNotServed: a directory's inode can outlive its
// listing in the cache — any cold lookup of a descendant re-puts every
// ancestor's inode under a new lease. A readdir that then hits the inode and
// finds the listing expired must read the server's listing from the start,
// not continue from the expired one, and must cache what it read.
func TestReaddirStaleListingNotServed(t *testing.T) {
	_, cfg := testCluster(t, 1)
	now := time.Now()
	cfg.Now = func() time.Time { return now }
	c, other := dialTest(t, cfg), dialTest(t, cfg)
	for _, d := range []string{"/d", "/d/a", "/d/c", "/d/sub", "/d/sub/deep"} {
		if err := c.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	names := func(ents []DirEntry) (s string) {
		for _, e := range ents {
			s += e.Name + " "
		}
		return s
	}
	ents, err := c.Readdir("/d") // caches /d's listing
	if err != nil || names(ents) != "a c sub " {
		t.Fatalf("Readdir(/d) = %q, %v", names(ents), err)
	}
	now = now.Add(dms.DefaultLeaseDur * 2 / 3)
	c.cache.invalidate("/d/sub/deep")
	if _, err := c.StatDir("/d/sub/deep"); err != nil { // cold: re-puts /d's inode
		t.Fatal(err)
	}
	if err := other.Rmdir("/d/c"); err != nil {
		t.Fatal(err)
	}
	if err := other.Mkdir("/d/b", 0o755); err != nil {
		t.Fatal(err)
	}
	now = now.Add(dms.DefaultLeaseDur * 2 / 3) // the listing's lease is over, the inode's is not
	if _, ok := c.cache.get("/d"); !ok {
		t.Fatal("setup: /d's inode should still be cached")
	}
	ents, err = c.Readdir("/d")
	if err != nil || names(ents) != "a b sub " {
		t.Errorf("Readdir(/d) over an expired listing = %q, %v; want the server's \"a b sub \"", names(ents), err)
	}
	if ents, ok := c.cache.getList("/d"); !ok || names(ents) != "a b sub " {
		t.Errorf("re-read listing not cached: %q, %v", names(ents), ok)
	}
}

// TestResponseCountsBoundedByInput: an element count in a response body
// sizes no allocation the rest of the body cannot back. Each response below
// declares 2^22 elements and holds none; sized by the count alone, one short
// response from a confused server cost the client hundreds of megabytes —
// and at 2^32-1, its process.
func TestResponseCountsBoundedByInput(t *testing.T) {
	const huge = 1 << 22
	n, cfg := testCluster(t, 1)
	c := dialTest(t, cfg)
	rs := rpc.NewServer()
	rs.Handle(wire.OpMigrateScan, func([]byte) (wire.Status, []byte) {
		return wire.StatusOK, wire.NewEnc().U32(0).U32(huge).Bytes()
	})
	l, err := n.Listen("confused")
	if err != nil {
		t.Fatal(err)
	}
	go rs.Serve(l)
	t.Cleanup(rs.Shutdown)
	if _, err := c.endpointAt("confused"); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func() error{
		"lookup chain": func() error {
			_, err := c.cacheLookupChainFrom(0, "/a", wire.NewEnc().U32(huge).Bytes())
			return err
		},
		"entry page": func() error {
			_, err := decodeEntryPage(wire.NewEnc().U32(huge).Bool(true).Bytes(), true)
			return err
		},
		"migrate scan": func() error {
			_, _, _, err := c.migrateScan(opCtx{}, wire.Member{ID: 7, Addr: "confused"}, []int{0}, 1)
			return err
		},
	}
	for name, decode := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count backed by nothing decoded without error", name)
		}
		// TotalAlloc is process-wide and the cluster's servers are running:
		// the bound is loose enough for their noise, and far below what a
		// count-sized allocation costs (tens of megabytes).
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: %d bytes allocated on a response of a few bytes", name, got)
		}
	}
}
