package bench

import (
	"fmt"
	"sort"
	"time"

	"locofs/internal/client"
	"locofs/internal/core"
)

// Fan-out client modes compared by FigFanOut, in column order.
const (
	modeSerial   = "serial"   // one server at a time (pre-fan-out baseline)
	modeParallel = "parallel" // bounded fan-out (the default client)
)

// fanOutServers is the FMS-count sweep: the environment's server scale
// points, always including the paper's 8-server configuration (the
// acceptance point for the parallel-vs-serial comparison).
func fanOutServers(env Env) []int {
	out := append([]int(nil), env.Servers...)
	has8 := false
	for _, n := range out {
		has8 = has8 || n == 8
	}
	if !has8 {
		out = append(out, 8)
	}
	sort.Ints(out)
	return out
}

// FigFanOut measures the multi-server metadata hot paths — readdir (DMS +
// every FMS holds a slice of the listing) and rmdir (every FMS must be
// probed for emptiness) — under two client configurations: one server at a
// time, and parallel bounded fan-out. Both send their multi-request steps
// (the cold lookup with the first directory page, follow-up pages) as
// pipelined groups. Virtual latency comes from client.Cost deltas, so the
// table shows exactly how the modeled time scales with FMS count.
//
// Shape to look for: serial readdir/rmdir grow linearly with FMS count
// (one round trip per server), while the parallel columns stay nearly flat
// — the fan-out overlaps the per-server round trips, so latency tracks the
// slowest server instead of the sum.
func FigFanOut(env Env) (*Table, error) {
	t := &Table{
		Title: "Fan-out: readdir/rmdir virtual latency vs #file metadata servers",
		Note: fmt.Sprintf("modeled link RTT = %v; dir with %d files; latency per op in virtual time",
			env.Link.RTT, fanOutWidth(env)),
		Headers: []string{"FMS",
			"readdir " + modeSerial, "readdir " + modeParallel, "rd-spdup",
			"rmdir " + modeSerial, "rmdir " + modeParallel, "rm-spdup"},
	}
	for _, n := range fanOutServers(env) {
		res, err := fanOutPoint(env, n)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n),
			fmtUS(res.readdir[modeSerial]), fmtUS(res.readdir[modeParallel]),
			fmtRatio(ratio(res.readdir[modeSerial], res.readdir[modeParallel])),
			fmtUS(res.rmdir[modeSerial]), fmtUS(res.rmdir[modeParallel]),
			fmtRatio(ratio(res.rmdir[modeSerial], res.rmdir[modeParallel])))
	}
	return t, nil
}

// fanOutWidth is the listing width: wide enough that a single FMS holds
// several ReaddirPageSize pages (so paging has pages to pack into a round
// trip at the low end of the sweep), and fixed across the sweep so the scaling columns
// compare like with like.
func fanOutWidth(env Env) int {
	return 2*client.ReaddirPageSize + env.LatItems
}

// fanOutResult holds one sweep point's per-mode virtual latencies.
type fanOutResult struct {
	readdir map[string]time.Duration
	rmdir   map[string]time.Duration
}

// fanOutPoint runs the client modes against one cluster of n FMSes.
func fanOutPoint(env Env, n int) (*fanOutResult, error) {
	cluster, err := core.Start(core.Options{
		FMSCount:  n,
		Link:      env.Link,
		CostModel: &core.PaperKVCost,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	// Populate one directory whose listing is spread across every FMS.
	seed, err := cluster.NewClient(core.ClientConfig{})
	if err != nil {
		return nil, err
	}
	if err := seed.Mkdir("/dir", 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < fanOutWidth(env); i++ {
		if err := seed.Create(fmt.Sprintf("/dir/f-%06d", i), 0o644); err != nil {
			return nil, err
		}
	}
	seed.Close()

	res := &fanOutResult{
		readdir: map[string]time.Duration{},
		rmdir:   map[string]time.Duration{},
	}
	modes := []struct {
		name string
		cfg  core.ClientConfig
	}{
		{modeSerial, core.ClientConfig{SerialFanOut: true}},
		{modeParallel, core.ClientConfig{}},
	}
	for i, m := range modes {
		c, err := cluster.NewClient(m.cfg)
		if err != nil {
			return nil, err
		}
		// Warm the directory cache so the measurements isolate the
		// fan-out itself rather than the cold path resolution.
		if _, err := c.StatDir("/dir"); err != nil {
			return nil, err
		}
		before := c.Cost()
		if _, err := c.Readdir("/dir"); err != nil {
			return nil, err
		}
		res.readdir[m.name] = c.Cost() - before

		// Rmdir of an empty directory: the cost is the emptiness probe
		// sweep across every FMS plus the DMS removal.
		empty := fmt.Sprintf("/gone-%d", i)
		if err := c.Mkdir(empty, 0o755); err != nil {
			return nil, err
		}
		before = c.Cost()
		if err := c.Rmdir(empty); err != nil {
			return nil, err
		}
		res.rmdir[m.name] = c.Cost() - before
		c.Close()
	}
	return res, nil
}

// ratio returns serial/parallel as a speedup factor.
func ratio(serial, parallel time.Duration) float64 {
	if parallel <= 0 {
		return 0
	}
	return float64(serial) / float64(parallel)
}
