package partition

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// fastRep shrinks the replication timeout so exclusion tests run in
// milliseconds instead of the production default.
func fastRep(cfg *Config) { cfg.RepTimeout = 60 * time.Millisecond }

// dumpStore snapshots a replica's KV state, minus the root inode ("P:/"):
// the root is created locally at construction with a wall-clock ctime, not
// through log replay, so it is the one key that legitimately differs
// between replicas. Everything the log produced must match byte-for-byte.
func dumpStore(s *kv.Instrumented) map[string]string {
	out := map[string]string{}
	s.ForEach(func(k, v []byte) bool {
		if string(k) != "P:/" {
			out[string(k)] = string(v)
		}
		return true
	})
	return out
}

// TestCatchUpRejoin: a follower that misses appends while blackholed is
// excluded, replays the missed range via catch-up, rejoins the live
// fan-out set, and ends byte-identical with the leader — with subsequent
// acked mutations landing on it again (the acceptance-criteria e2e at the
// node layer).
func TestCatchUpRejoin(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f1", "f2"), fastRep)
	if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody("/d0"), 1); st != wire.StatusOK {
		t.Fatalf("mkdir /d0: %v", st)
	}

	// f2 goes dark: appends to it vanish (sends still succeed, so only the
	// replication deadline detects it), and the leader excludes it.
	ts.net.SetFault("f2", netsim.FaultConfig{Blackhole: true})
	for i := 1; i <= 3; i++ {
		if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody(fmt.Sprintf("/d%d", i)), uint64(1+i)); st != wire.StatusOK {
			t.Fatalf("mkdir during blackhole: %v", st)
		}
	}
	if exc := ts.nodes["l"].Excluded(); len(exc) != 1 || exc[0] != "f2" {
		t.Fatalf("excluded = %v, want [f2]", exc)
	}
	if got := ts.nodes["f2"].LogLen(); got >= ts.nodes["l"].LogLen() {
		t.Fatalf("blackholed follower log length %d not behind leader's %d", got, ts.nodes["l"].LogLen())
	}

	// Network heals; the follower pulls itself to the tip and rejoins.
	ts.net.SetFault("f2", netsim.FaultConfig{})
	if err := ts.nodes["f2"].CatchUp(); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if exc := ts.nodes["l"].Excluded(); len(exc) != 0 {
		t.Fatalf("excluded after rejoin = %v, want none", exc)
	}

	// Acked ⇒ on every non-excluded replica must hold across the rejoin:
	// a fresh mutation lands on f2 too.
	if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody("/after"), 9); st != wire.StatusOK {
		t.Fatalf("mkdir after rejoin: %v", st)
	}
	want := ts.nodes["l"].LogLen()
	for _, addr := range []string{"f1", "f2"} {
		if got := ts.nodes[addr].LogLen(); got != want {
			t.Fatalf("%s log length = %d, want %d", addr, got, want)
		}
	}
	ref := dumpStore(ts.stores["l"])
	for _, addr := range []string{"f1", "f2"} {
		if got := dumpStore(ts.stores[addr]); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s store differs from leader's after rejoin (%d vs %d keys)", addr, len(got), len(ref))
		}
	}
}

// TestTruncationBoundsLogAndLateRetry: the retained log and the dedup
// table stay near the cap under sustained load, a retry older than the
// pruned watermark is refused with EEXPIRED (never re-executed), and
// retries above the watermark — and other clients entirely — are
// unaffected.
func TestTruncationBoundsLogAndLateRetry(t *testing.T) {
	const cap = 8
	ts := startShard(t, onePartitionMap("l", "f"), func(cfg *Config) { cfg.LogCap = cap })
	base := uint64(5) << 24 // one client's dedup-id base, 24-bit sequence below
	const total = 40
	for i := 1; i <= total; i++ {
		if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody(fmt.Sprintf("/d%02d", i)), base|uint64(i)); st != wire.StatusOK {
			t.Fatalf("mkdir %d: %v", i, st)
		}
	}
	if got := ts.nodes["l"].LogRetained(); got > cap {
		t.Errorf("leader retained log = %d, want <= %d", got, cap)
	}
	if got := ts.nodes["l"].DedupLen(); got > cap {
		t.Errorf("leader dedup table = %d, want <= %d", got, cap)
	}
	// The follower mirrors the leader's floor from the value piggybacked on
	// the next append, so it lags the leader's own prune by one entry.
	if got := ts.nodes["f"].LogRetained(); got > cap+1 {
		t.Errorf("follower retained log = %d, want <= %d", got, cap+1)
	}
	if got := ts.nodes["f"].DedupLen(); got > cap+1 {
		t.Errorf("follower dedup table = %d, want <= %d", got, cap+1)
	}

	// A retry from below the pruned watermark: its applied record is gone,
	// so the node can no longer tell it from a fresh request — it must be
	// refused, not re-executed (re-executing would return EEXIST here and,
	// for a non-idempotent op, double-apply). The node's log is the DMS's
	// only dedup record, so this guard is what every retry meets, on this
	// leader or a promoted one.
	if st, _ := ts.nodes["l"].serveMutation(wire.OpMkdir, base|1, 0, mkdirBody("/d01")); st != wire.StatusExpired {
		t.Fatalf("late retry below watermark = %v, want EEXPIRED", st)
	}
	// A retry still above the watermark replays its recorded response.
	if st, _ := ts.nodes["l"].serveMutation(wire.OpMkdir, base|total, 0, mkdirBody("/d40")); st != wire.StatusOK {
		t.Fatalf("retry above watermark = %v, want OK replay", st)
	}
	// The floor is per client: another client's sequence 1 is fresh.
	if st, _ := ts.nodes["l"].serveMutation(wire.OpMkdir, uint64(6)<<24|1, 0, mkdirBody("/other")); st != wire.StatusOK {
		t.Fatalf("other client's first request = %v, want OK", st)
	}
}

// TestExcludedResetOnMapInstall: installing a map whose group no longer
// lists an excluded address drops the exclusion (and its ack/catch-up
// bookkeeping) — a replaced replica must not haunt the new group.
func TestExcludedResetOnMapInstall(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f"), fastRep)
	ts.net.SetFault("f", netsim.FaultConfig{Blackhole: true})
	if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody("/d"), 1); st != wire.StatusOK {
		t.Fatalf("mkdir: %v", st)
	}
	if exc := ts.nodes["l"].Excluded(); len(exc) != 1 {
		t.Fatalf("excluded = %v, want [f]", exc)
	}
	pm2 := &wire.ClusterMap{Ver: 2, Groups: [][]string{{"l", "g"}}}
	if st, _ := ts.call(t, "l", wire.OpSetMap, wire.EncodeSetMap(pm2, wire.DMSCoords(0, 0)), 0); st != wire.StatusOK {
		t.Fatalf("map install: %v", st)
	}
	if exc := ts.nodes["l"].Excluded(); len(exc) != 0 {
		t.Fatalf("excluded after reconciling map install = %v, want none", exc)
	}
}

// TestStrayFetcherNotReadmitted: a fetcher outside the installed group is
// refused — it must not be able to rejoin or pin truncation.
func TestStrayFetcherNotReadmitted(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f"))
	st, _ := ts.call(t, "l", wire.OpLogFetch, wire.EncodeLogFetch("stranger", 0, 16), 0)
	if st != wire.StatusInval {
		t.Fatalf("stray OpLogFetch = %v, want EINVAL", st)
	}
}

// TestCatchupPastTruncatedLogRefused: a replica whose needed range was
// already pruned cannot be repaired from the log — the leader answers
// EEXPIRED rather than serving a hole.
func TestCatchupPastTruncatedLogRefused(t *testing.T) {
	const cap = 4
	ts := startShard(t, onePartitionMap("l", "f"), func(cfg *Config) { cfg.LogCap = cap })
	for i := 1; i <= 20; i++ {
		if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody(fmt.Sprintf("/d%02d", i)), uint64(i)); st != wire.StatusOK {
			t.Fatalf("mkdir %d: %v", i, st)
		}
	}
	st, _ := ts.call(t, "l", wire.OpLogFetch, wire.EncodeLogFetch("f", 0, 16), 0)
	if st != wire.StatusExpired {
		t.Fatalf("fetch below retained floor = %v, want EEXPIRED", st)
	}
}

// TestNoStallUnderBlackholedFollower: with one follower dark, a mutation
// costs at most the replication timeout (the follower is excluded), not a
// hang, and the next mutations run at full speed — replication fan-out no
// longer happens under the partition lock.
func TestNoStallUnderBlackholedFollower(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f1", "f2"), fastRep)
	ts.net.SetFault("f2", netsim.FaultConfig{Blackhole: true})
	start := time.Now()
	if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody("/d"), 1); st != wire.StatusOK {
		t.Fatalf("mkdir: %v", st)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("mutation under blackholed follower took %v", el)
	}
	// Excluded now: subsequent mutations pay no timeout at all.
	start = time.Now()
	for i := 2; i <= 5; i++ {
		if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody(fmt.Sprintf("/d%d", i)), uint64(i)); st != wire.StatusOK {
			t.Fatalf("mkdir %d: %v", i, st)
		}
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("mutations after exclusion took %v", el)
	}
	// Reads never touched the replication path and still serve.
	if st, _ := ts.call(t, "l", wire.OpStatDir, statBody("/d"), 0); st != wire.StatusOK {
		t.Fatal("read during exclusion failed")
	}
}

// TestMintTxIDAcrossPromotion: regression for the coordinator txid scheme.
// The old `txSeq | 1<<63` restarted at zero on a promoted leader, so its
// first minted id collided with the failed leader's first transaction, and
// a fresh rename would be taken for that old one. Folding the map version
// into minted ids makes successive leaders' ids disjoint.
func TestMintTxIDAcrossPromotion(t *testing.T) {
	ts := startShard(t, twoPartitionMap())
	for i, p := range []string{"/b", "/a", "/a/src", "/a/src2"} {
		if st, _ := ts.call(t, "p0-l", wire.OpMkdir, mkdirBody(p), uint64(i+1)); st != wire.StatusOK {
			t.Fatalf("mkdir %s: %v", p, st)
		}
	}
	// First rename: the coordinator mints txid #1. It "crashes" after
	// logging the commit decision, which is replicated on both source
	// replicas.
	ts.nodes["p0-l"].CrashAfterCommit.Store(true)
	if st, _ := ts.call(t, "p0-l", wire.OpRenameDir, renameBody("/a/src", "/b/dst"), 0); st != wire.StatusIO {
		t.Fatalf("crash-injected rename = %v, want EIO", st)
	}
	ts.rss["p0-l"].Shutdown()
	pm2 := &wire.ClusterMap{
		Ver:    2,
		Cuts:   []wire.PartCut{{Dir: "/b", PID: 1}},
		Groups: [][]string{{"p0-f"}, {"p1-l", "p1-f"}},
	}
	for addr, pid := range map[string]uint32{"p0-f": 0, "p1-l": 1, "p1-f": 1} {
		idx := 0
		if addr == "p1-f" {
			idx = 1
		}
		if st, _ := ts.call(t, addr, wire.OpSetMap, wire.EncodeSetMap(pm2, wire.DMSCoords(pid, idx)), 0); st != wire.StatusOK {
			t.Fatalf("map push to %s: %v", addr, st)
		}
	}
	// Recovery on the promoted leader re-drove the commit.
	if st, _ := ts.call(t, "p1-l", wire.OpStatDir, statBody("/b/dst"), 0); st != wire.StatusOK {
		t.Fatalf("recovered rename destination = %v, want OK", st)
	}
	// Fresh rename from the promoted leader: its minted txid must not
	// collide with the old leader's, and the rename must run.
	if st, _ := ts.call(t, "p0-f", wire.OpRenameDir, renameBody("/a/src2", "/b/dst2"), 0); st != wire.StatusOK {
		t.Fatalf("fresh rename on promoted leader = %v, want OK", st)
	}
	if st, _ := ts.call(t, "p1-l", wire.OpStatDir, statBody("/b/dst2"), 0); st != wire.StatusOK {
		t.Fatalf("fresh rename's destination = %v, want OK — the rename never executed", st)
	}
}

// TestPeriodicCatchupRejoins: with CatchupEvery set, an excluded follower
// rejoins on its own once the network heals — no append gap needed to
// trip it.
func TestPeriodicCatchupRejoins(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f"), fastRep,
		func(cfg *Config) { cfg.CatchupEvery = 30 * time.Millisecond })
	ts.net.SetFault("f", netsim.FaultConfig{Blackhole: true})
	if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody("/d"), 1); st != wire.StatusOK {
		t.Fatalf("mkdir: %v", st)
	}
	// The mkdir's fan-out timed out and excluded f — but the blackhole
	// gates connections *to* f, not f's own fetches to the leader, so a
	// periodic probe may have re-admitted it already. Either state is
	// legal here; the property under test is that the follower converges
	// with no manual CatchUp call.
	ts.net.SetFault("f", netsim.FaultConfig{})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(ts.nodes["l"].Excluded()) == 0 && ts.nodes["f"].LogLen() == ts.nodes["l"].LogLen() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower did not rejoin via periodic catch-up: excluded=%v", ts.nodes["l"].Excluded())
}

// TestFollowerPullsMapOnCatchUp: map pushes to followers are best-effort, so
// a follower that missed one must converge on its own. The version stamped
// on its leader's OpLogFetch reply tells it; it pulls the map and installs
// it under its own slot. A replica the newer map no longer lists keeps the
// map it has.
func TestFollowerPullsMapOnCatchUp(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f"), fastRep)
	v2 := onePartitionMap("l", "f")
	v2.Ver, v2.FMS = 2, []wire.Member{{ID: 0, Addr: "fms-0"}, {ID: 1, Addr: "fms-1"}}
	if st, _ := ts.call(t, "l", wire.OpSetMap, wire.EncodeSetMap(v2, wire.DMSCoords(0, 0)), 0); st != wire.StatusOK {
		t.Fatalf("push version 2 to the leader alone: %v", st)
	}
	if got := ts.nodes["f"].Map().Ver; got != 1 {
		t.Fatalf("follower at version %d before catching up, want 1", got)
	}
	if err := ts.nodes["f"].CatchUp(); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if m := ts.nodes["f"].Map(); m.Ver != 2 || len(m.FMS) != 2 || ts.nodes["f"].IsLeader() {
		t.Fatalf("follower after catch-up holds %+v (leader: %v), want version 2 as a follower", m, ts.nodes["f"].IsLeader())
	}
	if got := ts.rss["f"].MapVer(); got != 2 {
		t.Errorf("follower stamps version %d, want 2", got)
	}

	// Version 3 drops the follower. Its fetch is refused (not a member), the
	// refusal is stamped 3, and the pulled map has no slot for it.
	v3 := onePartitionMap("l")
	v3.Ver = 3
	if st, _ := ts.call(t, "l", wire.OpSetMap, wire.EncodeSetMap(v3, wire.DMSCoords(0, 0)), 0); st != wire.StatusOK {
		t.Fatalf("push version 3: %v", st)
	}
	if err := ts.nodes["f"].CatchUp(); err == nil {
		t.Error("catch-up of a dropped replica succeeded")
	}
	if got := ts.nodes["f"].Map().Ver; got != 2 {
		t.Errorf("dropped replica moved to version %d, want it left at 2", got)
	}
}
