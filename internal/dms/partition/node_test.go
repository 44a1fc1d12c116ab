package partition

import (
	"bytes"
	"testing"
	"time"

	"locofs/internal/dms"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// testShard runs every replica of every partition of pm on an in-process
// fabric, exactly as core.Start wires a sharded cluster (minus telemetry).
type testShard struct {
	net    *netsim.Network
	pm     *wire.ClusterMap
	nodes  map[string]*Node
	rss    map[string]*rpc.Server
	stores map[string]*kv.Instrumented
}

// startShard builds the shard; mods tweak each replica's Config before New
// (replication timeout, log cap, ...).
func startShard(t testing.TB, pm *wire.ClusterMap, mods ...func(*Config)) *testShard {
	t.Helper()
	ts := &testShard{
		net:    netsim.NewNetwork(netsim.Loopback),
		pm:     pm,
		nodes:  make(map[string]*Node),
		rss:    make(map[string]*rpc.Server),
		stores: make(map[string]*kv.Instrumented),
	}
	t.Cleanup(func() { ts.net.Close() })
	for pid, g := range pm.Groups {
		for idx, addr := range g {
			store := kv.Instrument(kv.NewBTreeStore(), kv.RAM)
			ds := dms.New(dms.Options{
				Store: store,
				// Replicas of one partition share a ServerID so replaying
				// the same op log yields byte-identical inodes.
				ServerID: 0x80000000 | uint32(pid),
			})
			cfg := Config{
				PID: uint32(pid), Index: idx,
				Map: pm, DMS: ds, Dialer: ts.net,
			}
			for _, mod := range mods {
				mod(&cfg)
			}
			n := New(cfg)
			ts.stores[addr] = store
			rs := rpc.NewServer()
			n.Attach(rs)
			l, err := ts.net.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			go rs.Serve(l)
			t.Cleanup(rs.Shutdown)
			t.Cleanup(n.Close)
			ts.nodes[addr] = n
			ts.rss[addr] = rs
		}
	}
	return ts
}

// call issues one op to addr with an explicit dedup id (0 = none).
func (ts *testShard) call(t testing.TB, addr string, op wire.Op, body []byte, req uint64) (wire.Status, []byte) {
	t.Helper()
	cl, err := rpc.Dial(ts.net, addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer cl.Close()
	st, resp, _, err := cl.Do(rpc.CallSpec{Op: op, Body: body, Req: req})
	if err != nil {
		t.Fatalf("call %s op %d: %v", addr, op, err)
	}
	return st, resp
}

func mkdirBody(path string) []byte {
	return wire.NewEnc().Str(path).U32(0o755).U32(0).U32(0).Bytes()
}

func statBody(path string) []byte {
	return wire.NewEnc().Str(path).U32(0).U32(0).Bytes()
}

func renameBody(oldPath, newPath string) []byte {
	return wire.NewEnc().Str(oldPath).Str(newPath).U32(0).U32(0).Bytes()
}

func onePartitionMap(addrs ...string) *wire.ClusterMap {
	return &wire.ClusterMap{Ver: 1, Groups: [][]string{addrs}}
}

func twoPartitionMap() *wire.ClusterMap {
	return &wire.ClusterMap{
		Ver:    1,
		Cuts:   []wire.PartCut{{Dir: "/b", PID: 1}},
		Groups: [][]string{{"p0-l", "p0-f"}, {"p1-l", "p1-f"}},
	}
}

// TestMutationReplicatesToFollower: a mutation acked by the leader is in
// the follower's log and applied to the follower's DMS, and the follower
// serves reads of it with byte-identical inode state.
func TestMutationReplicatesToFollower(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f"))
	if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody("/d"), 1); st != wire.StatusOK {
		t.Fatalf("mkdir via leader: %v", st)
	}
	if got := ts.nodes["f"].LogLen(); got != 1 {
		t.Fatalf("follower log length = %d, want 1", got)
	}
	stL, inoL := ts.call(t, "l", wire.OpStatDir, statBody("/d"), 0)
	stF, inoF := ts.call(t, "f", wire.OpStatDir, statBody("/d"), 0)
	if stL != wire.StatusOK || stF != wire.StatusOK {
		t.Fatalf("stat on leader/follower: %v / %v", stL, stF)
	}
	if !bytes.Equal(inoL, inoF) {
		t.Errorf("follower inode differs from leader's:\n  leader   %x\n  follower %x", inoL, inoF)
	}
}

// TestFollowerRefusesMutation: followers serve reads but not writes.
func TestFollowerRefusesMutation(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f"))
	if st, _ := ts.call(t, "f", wire.OpMkdir, mkdirBody("/d"), 1); st == wire.StatusOK {
		t.Fatal("follower accepted a mutation")
	}
}

// TestWrongPartitionGuard: a request for a path outside the node's range is
// refused with EWRONGPART, never executed.
func TestWrongPartitionGuard(t *testing.T) {
	ts := startShard(t, twoPartitionMap())
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/b/x"), 1); st != wire.StatusWrongPartition {
		t.Fatalf("mkdir of /b/x at partition 0 = %v, want EWRONGPART", st)
	}
	if st, _ := ts.call(t, "p1-l", wire.OpMkdir, mkdirBody("/a"), 2); st != wire.StatusWrongPartition {
		t.Fatalf("mkdir of /a at partition 1 = %v, want EWRONGPART", st)
	}
}

// TestSeededAncestor: creating the cut directory on its owning partition
// seeds the cut partition, so child creations there pass the ancestor walk.
func TestSeededAncestor(t *testing.T) {
	ts := startShard(t, twoPartitionMap())
	// /b's own inode lives with partition 0; its subtree with partition 1.
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/b"), 1); st != wire.StatusOK {
		t.Fatalf("mkdir /b: %v", st)
	}
	if st, _ := ts.call(t, "p1-l", wire.OpMkdir, mkdirBody("/b/x"), 2); st != wire.StatusOK {
		t.Fatalf("mkdir /b/x after seeding: %v", st)
	}
	// Without the seed the ancestor walk on partition 1 would have failed;
	// prove the negative with a never-created ancestor.
	if st, _ := ts.call(t, "p1-l", wire.OpMkdir, mkdirBody("/b/no/x"), 3); st == wire.StatusOK {
		t.Fatal("mkdir under a missing ancestor succeeded")
	}
}

// TestCutPointGuards: the cut directory is a mount-point-like fixture — it
// cannot be removed, and directory renames may not straddle the boundary.
func TestCutPointGuards(t *testing.T) {
	ts := startShard(t, twoPartitionMap())
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/b"), 1); st != wire.StatusOK {
		t.Fatalf("mkdir /b: %v", st)
	}
	if st, _ := ts.call(t, "p0-l", wire.OpRmdir, statBody("/b"), 2); st != wire.StatusInval {
		t.Fatalf("rmdir of cut dir = %v, want EINVAL", st)
	}
	// Renaming the cut directory itself would move the boundary: refused.
	if st, _ := ts.call(t, "p0-l", wire.OpRenameDir, renameBody("/b", "/c"), 3); st != wire.StatusInval {
		t.Fatalf("rename of cut dir = %v, want EINVAL", st)
	}
	// A subtree containing the cut straddles it too ("/" here).
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/a"), 4); st != wire.StatusOK {
		t.Fatalf("mkdir /a: %v", st)
	}
	if st, _ := ts.call(t, "p1-l", wire.OpRenameDir, renameBody("/b/x", "/b/y"), 5); st != wire.StatusNotFound {
		t.Fatalf("rename of missing dir inside partition = %v, want ENOENT", st)
	}
}

// TestPromotionReplaysDedup: after the leader dies and a follower is
// promoted, a retried mutation (same dedup id) replays the original
// response from the rebuilt applied map instead of re-executing.
func TestPromotionReplaysDedup(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f"))
	st, origResp := ts.call(t, "l", wire.OpMkdir, mkdirBody("/d"), 42)
	if st != wire.StatusOK {
		t.Fatalf("mkdir: %v", st)
	}
	ts.rss["l"].Shutdown()
	pm2 := &wire.ClusterMap{Ver: 2, Groups: [][]string{{"f"}}}
	if st, _ := ts.call(t, "f", wire.OpSetMap, wire.EncodeSetMap(pm2, wire.DMSCoords(0, 0)), 0); st != wire.StatusOK {
		t.Fatalf("promote follower: %v", st)
	}
	if !ts.nodes["f"].IsLeader() {
		t.Fatal("follower did not become leader")
	}
	// The retry (same dedup id) must replay OK with the original body, not
	// return EEXIST.
	st, resp := ts.call(t, "f", wire.OpMkdir, mkdirBody("/d"), 42)
	if st != wire.StatusOK {
		t.Fatalf("replayed mkdir on promoted leader = %v, want OK", st)
	}
	if !bytes.Equal(resp, origResp) {
		t.Errorf("replayed response differs from original")
	}
	// A genuinely new attempt at the same path is a duplicate.
	if st, _ := ts.call(t, "f", wire.OpMkdir, mkdirBody("/d"), 43); st != wire.StatusExist {
		t.Fatalf("fresh duplicate mkdir = %v, want EEXIST", st)
	}
}

// TestWrongPartitionNotReplayedAfterPromotion: a follower's EWRONGPART
// refused the mutation without executing it, so nothing records it — once
// the follower is promoted, the same request id executes. (When the rpc
// server kept its own dedup window, it replayed the refusal.)
func TestWrongPartitionNotReplayedAfterPromotion(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f"))
	if st, _ := ts.call(t, "f", wire.OpMkdir, mkdirBody("/d"), 7); st != wire.StatusWrongPartition {
		t.Fatalf("mkdir at the follower = %v, want EWRONGPART", st)
	}
	pm2 := &wire.ClusterMap{Ver: 2, Groups: [][]string{{"f"}}}
	if st, _ := ts.call(t, "f", wire.OpSetMap, wire.EncodeSetMap(pm2, wire.DMSCoords(0, 0)), 0); st != wire.StatusOK {
		t.Fatalf("promote follower: %v", st)
	}
	if st, _ := ts.call(t, "f", wire.OpMkdir, mkdirBody("/d"), 7); st != wire.StatusOK {
		t.Fatalf("same id at the promoted follower = %v, want OK", st)
	}
	if st, _ := ts.call(t, "f", wire.OpStatDir, statBody("/d"), 0); st != wire.StatusOK {
		t.Fatalf("stat /d after the retry = %v, want OK", st)
	}
}

// TestFreezeRefusalNotReplayedAfterRecover: a mutation refused with
// EUNAVAIL by a cross-partition rename's freeze executed nothing, so once
// Recover aborts the rename and unfreezes the subtree, the same request id
// executes.
func TestFreezeRefusalNotReplayedAfterRecover(t *testing.T) {
	ts := startShard(t, twoPartitionMap())
	for i, p := range []string{"/b", "/a", "/a/src"} {
		if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody(p), uint64(i+1)); st != wire.StatusOK {
			t.Fatalf("mkdir %s: %v", p, st)
		}
	}
	src := ts.nodes["p0-l"]
	src.CrashAfterPrepare.Store(true)
	if st, _ := ts.call(t, "p0-l", wire.OpRenameDir, renameBody("/a/src", "/b/dst"), 10); st != wire.StatusIO {
		t.Fatalf("crash-injected rename = %v, want EIO", st)
	}
	src.CrashAfterPrepare.Store(false)
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/a/src/x"), 20); st != wire.StatusUnavailable {
		t.Fatalf("mkdir inside the frozen subtree = %v, want EUNAVAIL", st)
	}
	src.Recover()
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/a/src/x"), 20); st != wire.StatusOK {
		t.Fatalf("same id after Recover = %v, want OK", st)
	}
}

// TestRenameRetryAfterLostAbort: each attempt of a cross-partition rename
// runs its own transaction. The first attempt's prepare reached the
// destination, but its abort was lost, so the destination still holds the
// first attempt's export. A retry under the same request id must not commit
// that stale export over the current subtree: an entry created in the source
// after the first attempt reaches the destination.
func TestRenameRetryAfterLostAbort(t *testing.T) {
	ts := startShard(t, twoPartitionMap())
	for i, p := range []string{"/b", "/a", "/a/src"} {
		if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody(p), uint64(i+1)); st != wire.StatusOK {
			t.Fatalf("mkdir %s: %v", p, st)
		}
	}
	src := ts.nodes["p0-l"]
	src.CrashAfterPrepare.Store(true)
	if st, _ := ts.call(t, "p0-l", wire.OpRenameDir, renameBody("/a/src", "/b/dst"), 30); st != wire.StatusIO {
		t.Fatalf("crash-injected rename = %v, want EIO", st)
	}
	src.CrashAfterPrepare.Store(false)
	// Recovery aborts the first attempt at the source, but the abort push to
	// the destination is lost: its prepare stays behind.
	ts.net.SetFault("p1-l", netsim.FaultConfig{DisconnectAfter: 1})
	src.Recover()
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/a/src/new"), 31); st != wire.StatusOK {
		t.Fatalf("mkdir in the unfrozen source = %v, want OK", st)
	}
	// The stale prepare still freezes the target: the retry is refused, not
	// answered with the first attempt's export.
	if st, _ := ts.call(t, "p0-l", wire.OpRenameDir, renameBody("/a/src", "/b/dst"), 30); st != wire.StatusUnavailable {
		t.Fatalf("retry against the stale prepare = %v, want EUNAVAIL", st)
	}
	// The next recovery pass re-pushes the undelivered abort; the retry then
	// moves the current subtree.
	src.Recover()
	if st, _ := ts.call(t, "p0-l", wire.OpRenameDir, renameBody("/a/src", "/b/dst"), 30); st != wire.StatusOK {
		t.Fatalf("retry after the abort reached the destination = %v, want OK", st)
	}
	for _, addr := range []string{"p1-l", "p1-f"} {
		if st, _ := ts.call(t, addr, wire.OpStatDir, statBody("/b/dst/new"), 0); st != wire.StatusOK {
			t.Errorf("entry created after the first attempt, at %s = %v, want OK (lost by the rename)", addr, st)
		}
	}
	if st, _ := ts.call(t, "p0-l", wire.OpStatDir, statBody("/a/src"), 0); st != wire.StatusNotFound {
		t.Errorf("source after rename = %v, want ENOENT", st)
	}
}

// TestInFlightRenameDuplicateWaits: a duplicate of a cross-partition rename
// that arrives while the first delivery is between its intent and its
// decision waits for that delivery and replays its outcome; it does not
// meet the rename's own freeze and answer EUNAVAIL. The rename executes
// once, and the node counts the replay and journals it under its trace.
func TestInFlightRenameDuplicateWaits(t *testing.T) {
	reg, journal := telemetry.NewRegistry(), obs.New(obs.Config{}).Journal
	ts := startShard(t, twoPartitionMap(), func(cfg *Config) { cfg.Obs = &obs.Handle{Reg: reg, Journal: journal} })
	for i, p := range []string{"/b", "/a", "/a/src"} {
		if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody(p), uint64(i+1)); st != wire.StatusOK {
			t.Fatalf("mkdir %s: %v", p, st)
		}
	}
	src, dst := ts.nodes["p0-l"], ts.nodes["p1-l"]
	dst.mu.Lock() // holds the destination's prepare
	held := true
	defer func() {
		if held {
			dst.mu.Unlock()
		}
	}()
	type outcome struct {
		st   wire.Status
		body []byte
	}
	out := make(chan outcome, 2)
	deliver := func() {
		st, body := src.serveMutation(wire.OpRenameDir, 9, 0x7ACE, renameBody("/a/src", "/b/dst"))
		out <- outcome{st, body}
	}
	before := src.LogLen()
	go deliver()
	for src.LogLen() == before { // the intent is logged: the first delivery is in flight
		time.Sleep(time.Millisecond)
	}
	go deliver()
	select {
	case o := <-out:
		t.Fatalf("a delivery returned %v while the destination prepare was held", o.st)
	case <-time.After(50 * time.Millisecond):
	}
	dst.mu.Unlock()
	held = false
	a, b := <-out, <-out
	if a.st != wire.StatusOK || b.st != wire.StatusOK || !bytes.Equal(a.body, b.body) {
		t.Fatalf("deliveries = %v %x / %v %x, want one OK outcome", a.st, a.body, b.st, b.body)
	}
	src.mu.Lock()
	intents := 0
	for _, le := range src.log {
		if le.Op == wire.OpRenameSrcPrepare {
			intents++
		}
	}
	src.mu.Unlock()
	if intents != 1 {
		t.Errorf("rename executed %d times, want 1", intents)
	}
	if st, _ := ts.call(t, "p1-l", wire.OpStatDir, statBody("/b/dst"), 0); st != wire.StatusOK {
		t.Errorf("destination after rename = %v, want OK", st)
	}
	var hits float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == obs.MetricDedupHits && telemetry.LabelValue(m.Labels, "op") == "RenameDir" {
			hits += m.Value
		}
	}
	if hits != 1 {
		t.Errorf("RenameDir dedup hits = %v, want 1", hits)
	}
	evs, _, _ := journal.Since(0, 0)
	replays := 0
	for _, ev := range evs {
		if ev.Kind == obs.KindDedupReplay {
			replays++
			if ev.Trace != 0x7ACE {
				t.Errorf("dedup_replay trace = %#x, want 0x7ace", ev.Trace)
			}
		}
	}
	if replays != 1 {
		t.Errorf("dedup_replay events = %d, want 1", replays)
	}
}

// TestStaleMapPushRejected: a map no newer than the installed one is ESTALE.
func TestStaleMapPushRejected(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f"))
	pm1 := &wire.ClusterMap{Ver: 1, Groups: [][]string{{"l", "f"}}}
	if st, _ := ts.call(t, "f", wire.OpSetMap, wire.EncodeSetMap(pm1, wire.DMSCoords(0, 1)), 0); st != wire.StatusStale {
		t.Fatalf("same-version map push = %v, want ESTALE", st)
	}
}

// TestGetMap: every node serves the current map.
func TestGetMap(t *testing.T) {
	ts := startShard(t, twoPartitionMap())
	for _, addr := range []string{"p0-l", "p0-f", "p1-l", "p1-f"} {
		st, body := ts.call(t, addr, wire.OpGetMap, nil, 0)
		if st != wire.StatusOK {
			t.Fatalf("GetMap at %s: %v", addr, st)
		}
		pm, err := wire.DecodeClusterMap(body)
		if err != nil || pm.Ver != 1 || len(pm.Groups) != 2 {
			t.Fatalf("GetMap at %s: pm=%+v err=%v", addr, pm, err)
		}
	}
}

// TestCrossPartitionRenameAtNodes drives the two-partition commit directly
// at the node layer: source and destination end states, and the dedup
// replay of the whole transaction.
func TestCrossPartitionRenameAtNodes(t *testing.T) {
	ts := startShard(t, twoPartitionMap())
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/b"), 1); st != wire.StatusOK {
		t.Fatal("mkdir /b")
	}
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/a"), 2); st != wire.StatusOK {
		t.Fatal("mkdir /a")
	}
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/a/src"), 3); st != wire.StatusOK {
		t.Fatal("mkdir /a/src")
	}
	if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody("/a/src/kid"), 4); st != wire.StatusOK {
		t.Fatal("mkdir /a/src/kid")
	}
	st, _ := ts.call(t, "p0-l", wire.OpRenameDir, renameBody("/a/src", "/b/dst"), 5)
	if st != wire.StatusOK {
		t.Fatalf("cross-partition rename: %v", st)
	}
	if st, _ := ts.call(t, "p0-l", wire.OpStatDir, statBody("/a/src"), 0); st != wire.StatusNotFound {
		t.Fatalf("source after rename = %v, want ENOENT", st)
	}
	for _, addr := range []string{"p1-l", "p1-f"} {
		if st, _ := ts.call(t, addr, wire.OpStatDir, statBody("/b/dst"), 0); st != wire.StatusOK {
			t.Fatalf("destination at %s after rename = %v", addr, st)
		}
		if st, _ := ts.call(t, addr, wire.OpStatDir, statBody("/b/dst/kid"), 0); st != wire.StatusOK {
			t.Fatalf("moved child at %s = %v", addr, st)
		}
	}
	// Retrying the whole transaction under the same dedup id replays OK.
	if st, _ := ts.call(t, "p0-l", wire.OpRenameDir, renameBody("/a/src", "/b/dst"), 5); st != wire.StatusOK {
		t.Fatalf("replayed cross-partition rename = %v, want OK", st)
	}
}

// TestNodeNamesItselfBySlot: a solo DMS knows no address of its own, and the
// first map change a client pushes names it by whatever address that client
// dialed. The node must find itself by the (partition, slot) the push
// carries — comparing addresses, it would take the only entry of its group
// for a follower and replicate every mutation to itself.
func TestNodeNamesItselfBySlot(t *testing.T) {
	net := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { net.Close() })
	n := New(Config{DMS: dms.New(dms.Options{}), Dialer: net})
	t.Cleanup(n.Close)
	rs := rpc.NewServer()
	n.Attach(rs)
	l, err := net.Listen("dms")
	if err != nil {
		t.Fatal(err)
	}
	go rs.Serve(l)
	t.Cleanup(rs.Shutdown)
	ts := &testShard{net: net}

	if m := n.Map(); m.Ver != 0 || !n.IsLeader() || rs.MapVer() != 0 {
		t.Fatalf("solo node starts with %+v (leader: %v)", m, n.IsLeader())
	}
	v1 := onePartitionMap("dms") // the address the pushing client dialed
	for _, at := range []wire.Coords{wire.DMSCoords(1, 0), wire.DMSCoords(0, 1), wire.FMSCoords(0)} {
		if st, _ := ts.call(t, "dms", wire.OpSetMap, wire.EncodeSetMap(v1, at), 0); st != wire.StatusInval {
			t.Errorf("push with coordinates %+v = %v, want EINVAL", at, st)
		}
	}
	if st, _ := ts.call(t, "dms", wire.OpSetMap, wire.EncodeSetMap(v1, wire.DMSCoords(0, 0)), 0); st != wire.StatusOK {
		t.Fatalf("push version 1: %v", st)
	}
	before := rs.Served.Load()
	if st, _ := ts.call(t, "dms", wire.OpMkdir, mkdirBody("/d"), 1); st != wire.StatusOK {
		t.Fatalf("mkdir under the pushed map: %v", st)
	}
	if got := rs.Served.Load() - before; got != 1 {
		t.Errorf("one mkdir cost the node %d requests, want 1 (it appended to itself)", got)
	}
	if exc := n.Excluded(); len(exc) != 0 {
		t.Errorf("excluded = %v, want none", exc)
	}
}
