package bench

import (
	"fmt"

	"locofs/internal/core"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
)

// OpBreakdown renders a telemetry snapshot's per-op latency histograms
// (those of the named metric) as a result table: one row per operation with
// count, mean, and tail quantiles. It is the bridge between the telemetry
// layer and the bench/report formats.
func OpBreakdown(snap telemetry.Snapshot, metric, title, note string) *Table {
	t := &Table{
		Title:   title,
		Note:    note,
		Headers: []string{"op", "count", "mean", "p50", "p90", "p99", "max"},
	}
	for _, r := range snap.OpTable(metric) {
		t.AddRow(r.Op, fmt.Sprintf("%d", r.Count),
			fmtUS(r.Mean), fmtUS(r.P50), fmtUS(r.P90), fmtUS(r.P99), fmtUS(r.Max))
	}
	return t
}

// OpStats runs a mixed metadata workload against LocoFS and reports the
// client-observed per-op round-trip latency breakdown from the telemetry
// histograms. Unlike the paper figures (virtual-time modeled latency), this
// reports measured wall-clock round trips over the in-process fabric — the
// view an operator would get from a real deployment's /metrics endpoint.
func OpStats(env Env) (*Table, error) {
	cluster, err := core.Start(core.Options{FMSCount: 4})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	// Cache disabled so directory lookups hit the DMS and LookupDir shows
	// up in the breakdown alongside the FMS ops.
	reg := telemetry.NewRegistry()
	cl, err := cluster.NewClient(core.ClientConfig{Obs: &obs.Handle{Reg: reg}, DisableCache: true})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	n := env.LatItems
	if err := cl.Mkdir("/ops", 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("/ops/d%d", i)
		f := fmt.Sprintf("/ops/f%d", i)
		steps := []func() error{
			func() error { return cl.Mkdir(d, 0o755) },
			func() error { _, err := cl.StatDir(d); return err },
			func() error { return cl.Create(f, 0o644) },
			func() error { _, err := cl.StatFile(f); return err },
			func() error { return cl.Access(f, false) },
			func() error { return cl.Chmod(f, 0o600) },
			func() error { return cl.RenameFile(f, f+"r") },
			func() error { _, err := cl.RenameDir(d, d+"r"); return err },
			func() error { _, err := cl.Readdir("/ops"); return err },
			func() error { return cl.Remove(f + "r") },
			func() error { return cl.Rmdir(d + "r") },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return nil, fmt.Errorf("bench: opstats workload: %w", err)
			}
		}
	}
	return OpBreakdown(reg.Snapshot(), rpc.MetricRTT,
		"Per-op client round-trip latency (LocoFS, measured)",
		fmt.Sprintf("%d iterations of a mixed metadata workload, wall-clock RTTs from the client telemetry histograms.", n)), nil
}
