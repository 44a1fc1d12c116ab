package partition

import (
	"fmt"
	"runtime"
	"testing"

	"locofs/internal/dms"
	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// TestTruncationIsAmortised: once the log is full every mutation prunes one
// entry, and that prune must not copy the retained suffix. A leader driven
// through 20×LogCap single-entry prunes allocates only when an append
// outgrows the array (well under one allocation per 20 prunes), and the
// array stays within twice the cap on the leader and on a follower
// mirroring its floor.
func TestTruncationIsAmortised(t *testing.T) {
	const logCap, slack = 64, 8
	n := New(Config{DMS: dms.New(dms.Options{}), LogCap: logCap})
	n.Attach(rpc.NewServer())
	entries := make([]*wire.LogEntry, 21*logCap)
	for i := range entries {
		entries[i] = &wire.LogEntry{Index: uint64(i), Req: 5<<24 | uint64(i+1), Op: wire.OpMkdir}
	}
	step := func(le *wire.LogEntry) {
		n.logAppendLocked(le)
		n.appliedIdx++
		n.maybePruneLocked()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, le := range entries[:logCap] { // fill to the cap: no pruning yet
		step(le)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prunes := 0
	for _, le := range entries[logCap:] {
		step(le)
		prunes++
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / float64(prunes); per >= 0.05 {
		t.Errorf("%.3f allocations per prune over %d prunes, want < 0.05", per, prunes)
	}
	if len(n.log) != logCap || n.firstIndex != uint64(len(entries)-logCap) {
		t.Errorf("retained %d entries from %d, want %d from %d", len(n.log), n.firstIndex, logCap, len(entries)-logCap)
	}
	if c := cap(n.log); c > 2*logCap+slack {
		t.Errorf("log array capacity %d, want <= %d", c, 2*logCap+slack)
	}

	// The same bound end to end, with a follower pruning to the floor the
	// leader piggybacks on every append.
	const shardCap = 16
	ts := startShard(t, onePartitionMap("l", "f"), func(cfg *Config) { cfg.LogCap = shardCap })
	for i := 1; i <= 10*shardCap; i++ {
		if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody(fmt.Sprintf("/d%03d", i)), uint64(i)); st != wire.StatusOK {
			t.Fatalf("mkdir %d: %v", i, st)
		}
	}
	for _, addr := range []string{"l", "f"} {
		nd := ts.nodes[addr]
		nd.mu.Lock()
		retained, c := len(nd.log), cap(nd.log)
		nd.mu.Unlock()
		if retained > shardCap+1 || c > 2*shardCap+slack {
			t.Errorf("%s: retained %d in an array of %d, want <= %d in <= %d", addr, retained, c, shardCap+1, 2*shardCap+slack)
		}
	}
}

// gaugeValue reads one gauge from reg; ok is false when it is not exported.
func gaugeValue(reg *telemetry.Registry, name, follower string) (v float64, ok bool) {
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == name && telemetry.LabelValue(m.Labels, "follower") == follower {
			return m.Value, true
		}
	}
	return 0, false
}

// TestLogGauges: a node exports its log bounds, exclusions and per-follower
// ack lag from its first append on — not before — and a follower the group
// drops takes its lag gauge with it.
func TestLogGauges(t *testing.T) {
	regs := map[int]*telemetry.Registry{}
	ts := startShard(t, onePartitionMap("l", "f1", "f2"), fastRep, func(cfg *Config) {
		cfg.LogCap = 4
		regs[cfg.Index] = telemetry.NewRegistry()
		cfg.Obs = &obs.Handle{Reg: regs[cfg.Index]}
	})
	if _, ok := gaugeValue(regs[0], MetricLogNextIndex, ""); ok {
		t.Fatal("log gauges exported before the first append")
	}
	for i := 1; i <= 6; i++ {
		if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody(fmt.Sprintf("/d%d", i)), uint64(i)); st != wire.StatusOK {
			t.Fatalf("mkdir %d: %v", i, st)
		}
	}
	ts.net.SetFault("f2", netsim.FaultConfig{Blackhole: true})
	if st, _ := ts.call(t, "l", wire.OpMkdir, mkdirBody("/d7"), 7); st != wire.StatusOK {
		t.Fatalf("mkdir with f2 dark: %v", st)
	}
	for _, c := range []struct {
		reg      int
		name     string
		follower string
		want     float64
	}{
		{0, MetricLogNextIndex, "", 7},
		{0, MetricLogAppliedIndex, "", 7},
		{0, MetricLogFirstIndex, "", 3},
		{0, MetricLogRetained, "", 4},
		{0, MetricExcludedFollowers, "", 1},
		{0, MetricFollowerAckLag, "f1", 0},
		{0, MetricFollowerAckLag, "f2", 7}, // excluded: no watermark
		{1, MetricLogNextIndex, "", 7},
		{1, MetricLogAppliedIndex, "", 7},
	} {
		if got, ok := gaugeValue(regs[c.reg], c.name, c.follower); !ok || got != c.want {
			t.Errorf("replica %d %s{follower=%q} = %v (exported %v), want %v", c.reg, c.name, c.follower, got, ok, c.want)
		}
	}
	if _, ok := gaugeValue(regs[1], MetricFollowerAckLag, "f1"); ok {
		t.Error("a follower exports an ack-lag gauge")
	}
	pm2 := &wire.ClusterMap{Ver: 2, Groups: [][]string{{"l", "f1"}}}
	if st, _ := ts.call(t, "l", wire.OpSetMap, wire.EncodeSetMap(pm2, wire.DMSCoords(0, 0)), 0); st != wire.StatusOK {
		t.Fatalf("map install: %v", st)
	}
	if _, ok := gaugeValue(regs[0], MetricFollowerAckLag, "f2"); ok {
		t.Error("ack-lag gauge of a dropped follower still exported")
	}
}

// BenchmarkReplicatedMkdirSteadyState: mkdirs through an r=2 partition
// whose log is already past its default cap, so every op also prunes —
// the steady state of a long-running DMS.
func BenchmarkReplicatedMkdirSteadyState(b *testing.B) {
	const parents = 64
	ts := startShard(b, onePartitionMap("l", "f"))
	cl, err := rpc.Dial(ts.net, "l")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	req := uint64(0)
	mkdir := func(path string) {
		req++
		st, _, _, err := cl.Do(rpc.CallSpec{Op: wire.OpMkdir, Body: mkdirBody(path), Req: req})
		if err != nil || st != wire.StatusOK {
			b.Fatalf("mkdir %s: %v %v", path, st, err)
		}
	}
	for p := 0; p < parents; p++ {
		mkdir(fmt.Sprintf("/p%02d", p))
	}
	i := 0
	for ; ts.nodes["l"].LogLen() <= DefaultLogCap+parents; i++ {
		mkdir(fmt.Sprintf("/p%02d/d%07d", i%parents, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for end := i + b.N; i < end; i++ {
		mkdir(fmt.Sprintf("/p%02d/d%07d", i%parents, i))
	}
}
