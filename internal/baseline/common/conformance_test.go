package common_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"locofs/internal/baseline/cephfs"
	"locofs/internal/baseline/common"
	"locofs/internal/baseline/glusterfs"
	"locofs/internal/baseline/indexfs"
	"locofs/internal/baseline/lustrefs"
	"locofs/internal/core"
	"locofs/internal/fsapi"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/rpc"
	"locofs/internal/wire"
)

// fastProfileNet returns a zero-latency fabric so conformance tests run at
// full speed. Baseline service sleeps still apply but the workloads are
// small.
func fastNet() *netsim.Network { return netsim.NewNetwork(netsim.Loopback) }

// eachSystem runs fn once per system under test with a fresh 4-server
// deployment and one client.
func eachSystem(t *testing.T, fn func(t *testing.T, fs fsapi.ExtendedFS)) {
	t.Helper()
	systems := []struct {
		name  string
		build func(t *testing.T) fsapi.ExtendedFS
	}{
		{"locofs", func(t *testing.T) fsapi.ExtendedFS {
			cluster, err := core.Start(core.Options{FMSCount: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cluster.Close)
			cl, err := cluster.NewClient(core.ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return fsapi.LocoFS{C: cl}
		}},
		{"indexfs", func(t *testing.T) fsapi.ExtendedFS {
			n := fastNet()
			t.Cleanup(func() { n.Close() })
			sys, err := indexfs.Start(n, 4, netsim.Loopback)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			cl, err := sys.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		}},
		{"cephfs", func(t *testing.T) fsapi.ExtendedFS {
			n := fastNet()
			t.Cleanup(func() { n.Close() })
			sys, err := cephfs.Start(n, 4, netsim.Loopback)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			cl, err := sys.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		}},
		{"gluster", func(t *testing.T) fsapi.ExtendedFS {
			n := fastNet()
			t.Cleanup(func() { n.Close() })
			sys, err := glusterfs.Start(n, 4, netsim.Loopback)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			cl, err := sys.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		}},
		{"lustre-d1", func(t *testing.T) fsapi.ExtendedFS {
			n := fastNet()
			t.Cleanup(func() { n.Close() })
			sys, err := lustrefs.Start(n, 4, lustrefs.DNE1, netsim.Loopback)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			cl, err := sys.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		}},
		{"lustre-d2", func(t *testing.T) fsapi.ExtendedFS {
			n := fastNet()
			t.Cleanup(func() { n.Close() })
			sys, err := lustrefs.Start(n, 4, lustrefs.DNE2, netsim.Loopback)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close)
			cl, err := sys.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			return cl
		}},
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			fn(t, sys.build(t))
		})
	}
}

// TestConformanceBasicTree: every system must pass the same create/stat/
// readdir/remove scenario the workloads rely on.
func TestConformanceBasicTree(t *testing.T) {
	eachSystem(t, func(t *testing.T, fs fsapi.ExtendedFS) {
		if err := fs.Mkdir("/work", 0o755); err != nil {
			t.Fatalf("mkdir /work: %v", err)
		}
		if err := fs.Mkdir("/work/sub", 0o755); err != nil {
			t.Fatalf("mkdir /work/sub: %v", err)
		}
		for i := 0; i < 10; i++ {
			if err := fs.Create(fmt.Sprintf("/work/f%d", i), 0o644); err != nil {
				t.Fatalf("create f%d: %v", i, err)
			}
		}
		if err := fs.StatDir("/work"); err != nil {
			t.Errorf("statdir /work: %v", err)
		}
		if err := fs.StatFile("/work/f3"); err != nil {
			t.Errorf("statfile f3: %v", err)
		}
		if err := fs.StatFile("/work/missing"); wire.StatusOf(err) != wire.StatusNotFound {
			t.Errorf("statfile missing = %v, want ENOENT", err)
		}
		n, err := fs.Readdir("/work")
		if err != nil {
			t.Fatalf("readdir: %v", err)
		}
		if n != 11 { // 10 files + 1 subdir
			t.Errorf("readdir count = %d, want 11", n)
		}
		for i := 0; i < 10; i++ {
			if err := fs.Remove(fmt.Sprintf("/work/f%d", i)); err != nil {
				t.Fatalf("remove f%d: %v", i, err)
			}
		}
		if err := fs.Rmdir("/work"); wire.StatusOf(err) != wire.StatusNotEmpty {
			t.Errorf("rmdir with subdir = %v, want ENOTEMPTY", err)
		}
		if err := fs.Rmdir("/work/sub"); err != nil {
			t.Fatalf("rmdir sub: %v", err)
		}
		if err := fs.Rmdir("/work"); err != nil {
			t.Fatalf("rmdir work: %v", err)
		}
	})
}

func TestConformanceErrors(t *testing.T) {
	eachSystem(t, func(t *testing.T, fs fsapi.ExtendedFS) {
		if err := fs.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fs.Mkdir("/d", 0o755); wire.StatusOf(err) != wire.StatusExist {
			t.Errorf("dup mkdir = %v, want EEXIST", err)
		}
		if err := fs.Create("/nodir/f", 0o644); wire.StatusOf(err) != wire.StatusNotFound {
			t.Errorf("create in missing dir = %v, want ENOENT", err)
		}
		if err := fs.Create("/d/f", 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fs.Create("/d/f", 0o644); wire.StatusOf(err) != wire.StatusExist {
			t.Errorf("dup create = %v, want EEXIST", err)
		}
		if err := fs.Rmdir("/d"); wire.StatusOf(err) != wire.StatusNotEmpty {
			t.Errorf("rmdir non-empty = %v, want ENOTEMPTY", err)
		}
	})
}

func TestConformanceExtendedOps(t *testing.T) {
	eachSystem(t, func(t *testing.T, fs fsapi.ExtendedFS) {
		fs.Mkdir("/x", 0o755)
		fs.Create("/x/f", 0o644)
		if err := fs.Chmod("/x/f", 0o600); err != nil {
			t.Errorf("chmod: %v", err)
		}
		if err := fs.Chown("/x/f", 5, 5); err != nil {
			t.Errorf("chown: %v", err)
		}
		if err := fs.Truncate("/x/f", 4096); err != nil {
			t.Errorf("truncate: %v", err)
		}
		if err := fs.Access("/x/f"); err != nil {
			t.Errorf("access: %v", err)
		}
		if err := fs.Chmod("/x/missing", 0o600); wire.StatusOf(err) != wire.StatusNotFound {
			t.Errorf("chmod missing = %v, want ENOENT", err)
		}
	})
}

func TestConformanceDeepPaths(t *testing.T) {
	eachSystem(t, func(t *testing.T, fs fsapi.ExtendedFS) {
		p := ""
		for d := 0; d < 8; d++ {
			p = fmt.Sprintf("%s/d%d", p, d)
			if err := fs.Mkdir(p, 0o755); err != nil {
				t.Fatalf("mkdir %s: %v", p, err)
			}
		}
		leaf := p + "/leaf.txt"
		if err := fs.Create(leaf, 0o644); err != nil {
			t.Fatalf("create %s: %v", leaf, err)
		}
		if err := fs.StatFile(leaf); err != nil {
			t.Errorf("stat deep file: %v", err)
		}
		if n, err := fs.Readdir(p); err != nil || n != 1 {
			t.Errorf("readdir deep dir = %d, %v", n, err)
		}
	})
}

// TestGenericServerOps exercises the shared baseline server ops directly.
func TestGenericServerOps(t *testing.T) {
	n := fastNet()
	defer n.Close()
	cluster, err := common.StartCluster(n, 2, common.Profile{Name: "plain"}, func() kv.Store {
		return kv.NewHashStore()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	conn, err := common.DialCluster(n, cluster.Addrs, netsim.Loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if st, err := conn.Put(0, []byte("k"), []byte("v")); err != nil || st != wire.StatusOK {
		t.Fatalf("Put = %v, %v", st, err)
	}
	v, st, err := conn.Get(0, []byte("k"))
	if err != nil || st != wire.StatusOK || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, st, err)
	}
	if _, st, _ := conn.Get(1, []byte("k")); st != wire.StatusNotFound {
		t.Errorf("Get on other server = %v, want ENOENT (servers must be independent)", st)
	}
	if st, _ := conn.CreateX(0, []byte("k"), []byte("w")); st != wire.StatusExist {
		t.Errorf("CreateX existing = %v, want EEXIST", st)
	}
	if st, _ := conn.CreateX(0, []byte("k2"), []byte("w")); st != wire.StatusOK {
		t.Errorf("CreateX fresh = %v", st)
	}
	ok, err := conn.Exists(0, []byte("k2"))
	if err != nil || !ok {
		t.Errorf("Exists = %v, %v", ok, err)
	}
	conn.Put(0, []byte("p/a"), nil)
	conn.Put(0, []byte("p/b"), nil)
	names, err := conn.ListPrefix(0, []byte("p/"))
	if err != nil || len(names) != 2 {
		t.Errorf("ListPrefix = %v, %v", names, err)
	}
	cnt, err := conn.CountPrefix(0, []byte("p/"))
	if err != nil || cnt != 2 {
		t.Errorf("CountPrefix = %d, %v", cnt, err)
	}
	del, err := conn.DelPrefix(0, []byte("p/"))
	if err != nil || del != 2 {
		t.Errorf("DelPrefix = %d, %v", del, err)
	}
	if st, _ := conn.Del(0, []byte("k")); st != wire.StatusOK {
		t.Errorf("Del = %v", st)
	}
	if st, _ := conn.Del(0, []byte("k")); st != wire.StatusNotFound {
		t.Errorf("Del missing = %v, want ENOENT", st)
	}
	if conn.N() != 2 {
		t.Errorf("N = %d", conn.N())
	}
	if conn.Trips() == 0 {
		t.Error("Trips not counted")
	}
}

// TestListPrefixCountBoundedByInput: a response count sizes no allocation
// the rest of the response cannot back. The response below declares 2^22
// suffixes and holds none; sized by the count alone, it cost the client
// tens of megabytes — and at 2^32-1, its process.
func TestListPrefixCountBoundedByInput(t *testing.T) {
	n := fastNet()
	defer n.Close()
	rs := rpc.NewServer()
	rs.Handle(common.OpListPrefix, func([]byte) (wire.Status, []byte) {
		return wire.StatusOK, wire.NewEnc().U32(1 << 22).Bytes()
	})
	l, err := n.Listen("confused")
	if err != nil {
		t.Fatal(err)
	}
	go rs.Serve(l)
	defer rs.Shutdown()
	conn, err := common.DialCluster(n, []string{"confused"}, netsim.Loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = conn.ListPrefix(0, []byte("p/"))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a count backed by nothing decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("%d bytes allocated on a response of a few bytes", got)
	}
}

func TestHashServerStableAndInRange(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for _, k := range []string{"/", "/a", "/a/b", "deep/path/name"} {
			got := common.HashServer(k, n)
			if got < 0 || got >= n {
				t.Fatalf("HashServer(%q, %d) = %d out of range", k, n, got)
			}
			if got != common.HashServer(k, n) {
				t.Fatal("HashServer not deterministic")
			}
		}
	}
}

func TestLeaseCache(t *testing.T) {
	c := common.NewLeaseCache(time.Hour)
	c.Put("/a", []byte("v"))
	if v, ok := c.Get("/a"); !ok || string(v) != "v" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	if !c.Has("/a") || c.Has("/b") {
		t.Error("Has misbehaves")
	}
	c.Drop("/a")
	if c.Has("/a") {
		t.Error("Drop did not remove entry")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}
