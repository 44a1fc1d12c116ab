package bench

import (
	"fmt"
	"time"

	"locofs/internal/core"
	"locofs/internal/fsapi"
	"locofs/internal/mdtest"
)

// AblationRenameRatio quantifies the paper's §3.4.1 argument: rename is so
// rare in real traces (zero in the TaihuLight trace, 1e-7 of operations in
// the BSC GPFS study) that hash-based metadata placement loses nothing in
// practice. The table replays the TaihuLight-style op mix with the rename
// ratio swept upward and reports the overall mean operation cost — which
// stays flat until renames become orders of magnitude more common than any
// measured trace.
func AblationRenameRatio(env Env) (*Table, error) {
	t := &Table{
		Title:   "Ablation: sensitivity of overall metadata cost to the rename ratio (§3.4.1)",
		Note:    "TaihuLight-style op mix; real traces sit at ratio 0 to 1e-7",
		Headers: []string{"rename ratio", "mean op cost", "vs ratio 0"},
	}
	cluster, err := core.Start(core.Options{
		FMSCount:  4,
		Link:      env.Link,
		CostModel: &core.PaperKVCost,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	newFS := func() (fsapi.FS, error) {
		cl, err := cluster.NewClient(core.ClientConfig{})
		if err != nil {
			return nil, err
		}
		return fsapi.LocoFS{C: cl}, nil
	}

	ops := env.TputItems * 40
	ratios := []float64{0, 1e-4, 1e-3, 1e-2, 5e-2}
	var base time.Duration
	for i, ratio := range ratios {
		mix := mdtest.TaihuLightMix
		if ratio > 0 {
			mix = mix.WithRenameRatio(ratio)
		}
		rep, err := mdtest.RunMix(mdtest.MixConfig{
			Ops:  ops,
			Mix:  mix,
			Seed: 11,
			Root: fmt.Sprintf("/mix%d", i),
		}, newFS)
		if err != nil {
			return nil, err
		}
		mean := rep.MeanLatency()
		if i == 0 {
			base = mean
		}
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%+.1f%%", (float64(mean)/float64(base)-1)*100)
		}
		t.AddRow(fmt.Sprintf("%.0e", ratio), fmtUS(mean), rel)
	}
	return t, nil
}

// AblationCacheLease sweeps the client cache lease (the paper fixes it at
// 30 s, §3.2.2) and reports create throughput: leases shorter than the
// phase force re-lookups, converging to LocoFS-NC as the lease goes to 0.
func AblationCacheLease(env Env) (*Table, error) {
	t := &Table{
		Title:   "Ablation: client directory-cache lease vs create cost (§3.2.2)",
		Note:    "single client, steady-state creates in one directory",
		Headers: []string{"lease", "mean create cost", "trips/op"},
	}
	leases := []time.Duration{0, time.Millisecond, 100 * time.Millisecond, 30 * time.Second}
	for i, lease := range leases {
		cluster, err := core.Start(core.Options{
			FMSCount:  4,
			Link:      env.Link,
			CostModel: &core.PaperKVCost,
			Lease:     lease,
		})
		if err != nil {
			return nil, err
		}
		cl, err := cluster.NewClient(core.ClientConfig{
			DisableCache: lease == 0,
			// This ablation sweeps the TTL itself, so run the cache in
			// its TTL-only mode; with lease coherence on, expiry no
			// longer drives re-lookups the way §3.2.2 describes.
			DisableLeaseCoherence: true,
		})
		if err != nil {
			cluster.Close()
			return nil, err
		}
		if err := cl.Mkdir("/w", 0o755); err != nil {
			cl.Close()
			cluster.Close()
			return nil, err
		}
		items := env.LatItems
		t0 := cl.Trips()
		c0 := cl.Cost()
		for j := 0; j < items; j++ {
			if err := cl.Create(fmt.Sprintf("/w/f%d-%d", i, j), 0o644); err != nil {
				cl.Close()
				cluster.Close()
				return nil, err
			}
		}
		mean := (cl.Cost() - c0) / time.Duration(items)
		trips := float64(cl.Trips()-t0) / float64(items)
		label := lease.String()
		if lease == 0 {
			label = "disabled"
		}
		t.AddRow(label, fmtUS(mean), fmt.Sprintf("%.2f", trips))
		cl.Close()
		cluster.Close()
	}
	return t, nil
}

// AblationDirentGranularity contrasts the paper's concatenated per-directory
// dirent values (§3.2.1: "all the files ... have their dirents concatenated
// as one value") against hypothetical per-entry dirent keys, by measuring
// the KV operations a readdir of an N-entry directory costs under each
// organization. Concatenation turns readdir into one get; per-entry keys
// need a scan over N records.
func AblationDirentGranularity(env Env) (*Table, error) {
	t := &Table{
		Title:   "Ablation: concatenated vs per-entry dirent storage (§3.2.1)",
		Note:    "modeled KV cost of one readdir on the owning FMS",
		Headers: []string{"entries", "concatenated", "per-entry keys"},
	}
	cost := core.PaperKVCost
	for _, n := range []int{16, 256, 4096} {
		// Concatenated: one get returning ~ (name + uuid + len) * n bytes.
		bytes := uint64(n * (8 + 16 + 1))
		concat := cost.Price(1, 0, 0, 0, bytes)
		// Per-entry: an ordered scan visiting n records of the same size.
		perEntry := cost.Price(0, 0, 0, uint64(n), bytes)
		t.AddRow(fmt.Sprint(n), fmtUS(concat), fmtUS(perEntry))
	}
	return t, nil
}
