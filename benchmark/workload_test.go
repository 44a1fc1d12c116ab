package main

import (
	"runtime"
	"testing"
	"time"
)

// Rounds the hypervisor disturbed are set aside, unless that would leave
// fewer than half of them.
func TestKeptRounds(t *testing.T) {
	cpus := time.Duration(runtime.NumCPU())
	calm := roundStat{Ops: 100, Wall: time.Second, Log: newOpLog()}
	noisy := roundStat{Ops: 100, Wall: time.Second, Steal: cpus * 20 * time.Millisecond, Log: newOpLog()} // 2 %
	edge := roundStat{Ops: 100, Wall: time.Second, Steal: cpus * 5 * time.Millisecond, Log: newOpLog()}   // exactly the limit
	if calm.disturbed() || edge.disturbed() || !noisy.disturbed() {
		t.Fatalf("disturbed: calm %v edge %v noisy %v", calm.disturbed(), edge.disturbed(), noisy.disturbed())
	}
	sec := &section{Rounds: []roundStat{calm, noisy, calm, noisy}}
	if got := len(sec.kept()); got != 2 {
		t.Errorf("kept %d of 4 rounds, want the 2 calm ones", got)
	}
	sec = &section{Rounds: []roundStat{calm, noisy, noisy}}
	if got := len(sec.kept()); got != 3 {
		t.Errorf("kept %d of 3 rounds, want all when most are disturbed", got)
	}
}

// The gated metrics are medians over the kept rounds.
func TestEndToEndMetrics(t *testing.T) {
	round := func(ops int, wall, cpu time.Duration, lat ...int64) roundStat {
		l := newOpLog()
		l.lat[kStat] = lat
		return roundStat{Ops: ops, Wall: wall, CPU: map[string]time.Duration{"fms": cpu / 2, "driver": cpu / 2}, Log: l}
	}
	sec := &section{Rounds: []roundStat{
		round(1000, time.Second, 100*time.Millisecond, 1000, 2000),
		round(1000, 2*time.Second, 300*time.Millisecond, 3000),
		round(1000, 4*time.Second, 200*time.Millisecond, 4000, 5000),
	}}
	m := endToEndMetrics(sec, []time.Duration{3 * time.Second, time.Second, 2 * time.Second})
	want := map[string]float64{"ops_per_s": 500, "p50_us": 3, "cpu_us_per_op": 200, "setup_s": 2}
	for k, w := range want {
		if m[k] != w {
			t.Errorf("%s = %v, want %v", k, m[k], w)
		}
	}
}
