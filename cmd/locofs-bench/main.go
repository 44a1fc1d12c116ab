// Command locofs-bench regenerates the tables and figures of the LocoFS
// paper's evaluation (SC'17, §4). Each experiment runs the reproduced
// systems on the in-process fabric and prints a table whose rows mirror
// what the paper reports; see EXPERIMENTS.md for the paper-vs-measured
// comparison and the measurement model.
//
// Usage:
//
//	locofs-bench [-quick] [experiment ...]
//
// Experiments: fig1 table1 table2 table3 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// fig13 fig14 fanout opstats spans faults rebalance slostorm cachestorm
// dmsshard dmscatchup, or "all"
// (default).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"locofs/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale (fewer servers, ops)")
	jsonDir := flag.String("json-dir", "", "also write each experiment's table as BENCH_<name>.json under this directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: locofs-bench [-quick] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "experiments: fig1 table1 table2 table3 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14\n")
		fmt.Fprintf(os.Stderr, "             ablation-rename ablation-lease ablation-dirent fanout opstats spans faults rebalance slostorm cachestorm dmsshard dmscatchup all\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	env := bench.Paper()
	if *quick {
		env = bench.Quick()
	}

	type experiment struct {
		name string
		run  func() (*bench.Table, error)
	}
	experiments := []experiment{
		{"fig1", func() (*bench.Table, error) { return bench.Fig1(env) }},
		{"table1", bench.Table1},
		{"table2", func() (*bench.Table, error) { return bench.Table2(env) }},
		{"table3", func() (*bench.Table, error) { return bench.Table3(env) }},
		{"fig6", func() (*bench.Table, error) { return bench.Fig6(env) }},
		{"fig7", func() (*bench.Table, error) { return bench.Fig7(env) }},
		{"fig8", func() (*bench.Table, error) { return bench.Fig8(env) }},
		{"fig9", func() (*bench.Table, error) { return bench.Fig9(env) }},
		{"fig10", func() (*bench.Table, error) { return bench.Fig10(env) }},
		{"fig11", func() (*bench.Table, error) { return bench.Fig11(env) }},
		{"fig12", func() (*bench.Table, error) { return bench.Fig12(env) }},
		{"fig13", func() (*bench.Table, error) { return bench.Fig13(env) }},
		{"fig14", func() (*bench.Table, error) { return bench.Fig14(env) }},
		// Extensions beyond the paper's figures: design-choice ablations.
		{"ablation-rename", func() (*bench.Table, error) { return bench.AblationRenameRatio(env) }},
		{"ablation-lease", func() (*bench.Table, error) { return bench.AblationCacheLease(env) }},
		{"ablation-dirent", func() (*bench.Table, error) { return bench.AblationDirentGranularity(env) }},
		// Fan-out study: serial vs parallel metadata hot paths.
		{"fanout", func() (*bench.Table, error) { return bench.FigFanOut(env) }},
		// Measured (wall-clock) per-op latency breakdown from the telemetry
		// histograms — the operator's view, not a paper figure.
		{"opstats", func() (*bench.Table, error) { return bench.OpStats(env) }},
		// Fully-traced run: per-op-class span-tree breakdown across the
		// client, the DMS and the FMSes (see internal/trace).
		{"spans", func() (*bench.Table, error) { return bench.Spans(env) }},
		// Fault-injection study: deadlines, retries and the circuit breaker
		// against a blackholed / lossy FMS (see internal/netsim faults).
		{"faults", func() (*bench.Table, error) { return bench.FigFaults(env) }},
		// Elasticity study: online FMS add/remove with key migration under
		// a live workload (see internal/client migrate).
		{"rebalance", func() (*bench.Table, error) { return bench.FigRebalance(env) }},
		// SLO study: windowed quantiles, burn rates and error budgets from
		// the cluster-health aggregator under a zipfian mixed workload
		// (see internal/slo).
		{"slostorm", func() (*bench.Table, error) { return bench.FigSLOStorm(env) }},
		{"cachestorm", func() (*bench.Table, error) { return bench.FigCacheStorm(env) }},
		// Sharded-DMS study: mdtest mix at 1/2/4 partitions plus the
		// same- vs cross-partition rename cost (see DESIGN.md §16).
		{"dmsshard", func() (*bench.Table, error) { return bench.FigDMSShard(env) }},
		// Replication-plane operability study: mutation throughput with a
		// dark follower and during its catch-up, plus the op-log bound.
		{"dmscatchup", func() (*bench.Table, error) { return bench.FigDMSCatchup(env) }},
	}

	want := flag.Args()
	if len(want) == 0 {
		want = []string{"all"}
	}
	selected := map[string]bool{}
	for _, w := range want {
		if w == "all" {
			for _, e := range experiments {
				selected[e.name] = true
			}
			continue
		}
		selected[w] = true
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
	}
	for w := range selected {
		if !known[w] {
			fmt.Fprintf(os.Stderr, "locofs-bench: unknown experiment %q\n", w)
			flag.Usage()
			os.Exit(2)
		}
	}

	failed := false
	for _, e := range experiments {
		if !selected[e.name] {
			continue
		}
		start := time.Now()
		tbl, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "locofs-bench: %s: %v\n", e.name, err)
			failed = true
			continue
		}
		tbl.Fprint(os.Stdout)
		elapsed := time.Since(start)
		fmt.Printf("(%s completed in %v)\n", e.name, elapsed.Round(time.Millisecond))
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, e.name, *quick, tbl, elapsed); err != nil {
				fmt.Fprintf(os.Stderr, "locofs-bench: %s: %v\n", e.name, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeJSON spools one experiment's table as BENCH_<name>.json — the
// machine-readable twin of the aligned-column text, so CI artifacts can be
// diffed or trended without screen-scraping.
func writeJSON(dir, name string, quick bool, tbl *bench.Table, elapsed time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out := struct {
		Name      string     `json:"name"`
		Quick     bool       `json:"quick"`
		Title     string     `json:"title"`
		Note      string     `json:"note,omitempty"`
		Headers   []string   `json:"headers"`
		Rows      [][]string `json:"rows"`
		ElapsedMS int64      `json:"elapsed_ms"`
	}{name, quick, tbl.Title, tbl.Note, tbl.Headers, tbl.Rows, elapsed.Milliseconds()}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), append(data, '\n'), 0o644)
}
