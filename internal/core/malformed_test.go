package core

import (
	"math/rand"
	"runtime"
	"testing"

	"locofs/internal/rpc"
	"locofs/internal/wire"
)

// TestServersSurviveMalformedBodies throws random garbage at every
// registered operation of every server type. Servers must keep answering
// (no panic, no hang) and reject undecodable requests with EINVAL.
func TestServersSurviveMalformedBodies(t *testing.T) {
	cluster, err := Start(Options{FMSCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	dmsOps := []wire.Op{
		wire.OpMkdir, wire.OpRmdir, wire.OpStatDir, wire.OpReaddirSubdirs,
		wire.OpLookupDir, wire.OpRenameDir, wire.OpChmodDir, wire.OpChownDir,
	}
	fmsOps := []wire.Op{
		wire.OpCreateFile, wire.OpRemoveFile, wire.OpStatFile, wire.OpOpenFile,
		wire.OpChmodFile, wire.OpChownFile, wire.OpAccessFile, wire.OpUtimensFile,
		wire.OpTruncateFile, wire.OpUpdateSize, wire.OpReaddirFiles,
		wire.OpDirHasFiles,
	}
	ossOps := []wire.Op{wire.OpPutBlock, wire.OpGetBlock, wire.OpDeleteBlocks}

	rng := rand.New(rand.NewSource(99))
	garbage := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	attack := func(addr string, ops []wire.Op) {
		conn, err := netClient(cluster, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, op := range ops {
			for _, size := range []int{0, 1, 3, 17, 200} {
				st, _, err := conn.Call(op, garbage(size))
				if err != nil {
					t.Fatalf("op %#x size %d: transport error %v (server died?)", uint16(op), size, err)
				}
				_ = st // any status is acceptable; surviving is the property
			}
		}
		// The server must still answer a well-formed request afterwards.
		if st, _, err := conn.Call(wire.OpPing, []byte("alive")); err != nil || st != wire.StatusOK {
			t.Fatalf("server at %s unhealthy after fuzzing: %v %v", addr, st, err)
		}
	}
	attack("dms", dmsOps)
	attack("fms-0", fmsOps)
	attack("oss-0", ossOps)

	// An element count with nothing behind it: the two server-side decoders
	// that size a slice by a count off the wire must size it by what the
	// body can hold. Sized by the count alone, these 2^22 cost the server
	// tens of megabytes per request — and 2^32-1 is a fatal out-of-memory,
	// which no recover catches.
	const huge = 1 << 22
	counted := func(addr string, op wire.Op, body []byte) {
		conn, err := netClient(cluster, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, _, err := conn.Call(op, body)
		runtime.ReadMemStats(&after)
		if err != nil || st == wire.StatusOK {
			t.Errorf("%s %v with a count backed by nothing: status %v, err %v", addr, op, st, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s %v: %d bytes allocated serving a %d-byte request", addr, op, got, len(body))
		}
	}
	counted("fms-0", wire.OpMigrateScan, wire.NewEnc().I64(0).U32(huge).Bytes())
	counted("dms", wire.OpRenamePrepare, wire.NewEnc().U64(1).Str("/a").Str("/b").U32(0).U32(0).U32(huge).Bytes())

	// The cluster still works end to end.
	cl, err := cluster.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Mkdir("/ok", 0o755); err != nil {
		t.Fatalf("cluster broken after fuzzing: %v", err)
	}
	if err := cl.Create("/ok/f", 0o644); err != nil {
		t.Fatalf("cluster broken after fuzzing: %v", err)
	}
}

// netClient dials a raw rpc client into the cluster fabric.
func netClient(c *Cluster, addr string) (*rpc.Client, error) {
	return rpc.Dial(c.net, addr)
}
