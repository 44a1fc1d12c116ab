// Command benchmark is the repo's wall-clock benchmark: real locofsd
// processes on TCP loopback, driven through the public locofs.Client API
// from this one process, checked against the generator's own model.
//
//	go run ./benchmark                      every workload, untraced and traced, as a table
//	go run ./benchmark -quick               the same at 1/20 of the counts
//	go run ./benchmark -agree               two full sets; fails if they disagree beyond the bounds
//	bash benchmark/run.sh --workload file_mix --seed 1 --seconds 15 --trace 0
//
// The last form is the contract BENCHMARK.json describes: one workload, one
// JSON object on the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// setupRuns is how many times a run sets the cluster up from nothing;
	// setup_s is the median, and the last set-up is the one measured on.
	setupRuns = 3
	// quickDiv is what -quick divides counts and seconds by.
	quickDiv = 20
	// agreeReps is how many runs of each workload one -agree set takes the
	// median of.
	agreeReps = 3
)

// contract is the part of BENCHMARK.json the program itself reads: how long
// a run measures, and the bound of each end-to-end metric.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readContract(root string) (contract, error) {
	var c contract
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// env is what every run of this invocation shares.
type env struct {
	root    string
	bin     string
	reaper  *reaper
	sz      sizes
	seed    uint64
	seconds time.Duration
	ladderN int // divisor of the ladder's iteration counts
}

// result is one run of one workload.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	FirstErr  error
	Metrics   map[string]float64
	Hash      string // fingerprint of the set-up and first round's op stream

	// Of the last section booked: the latency of the ops the metrics use,
	// and how many rounds ran and how many of them steal set aside.
	Latency           latencySummary
	Rounds, Disturbed int
}

// book counts a section's ops into the result. Every op counts as attempted
// and, if its result was wrong, as failed, whether or not its round's
// timings were kept.
func (res *result) book(sec *section) {
	all := mergeLogs(sec.Rounds)
	res.Attempted += sec.ops()
	res.Failed += all.failed
	if res.FirstErr == nil {
		res.FirstErr = all.firstErr
	}
	kept := sec.kept()
	res.Latency = summarize(mergeLogs(kept).all())
	res.Rounds, res.Disturbed = len(sec.Rounds), len(sec.Rounds)-len(kept)
}

func main() { os.Exit(run()) }

func run() int {
	workloadFlag := flag.String("workload", "", "run only this workload and print the contract's JSON line (default: all, as a table)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same op stream")
	seconds := flag.Float64("seconds", 0, "seconds of measured work per run (default: run_seconds of BENCHMARK.json)")
	traced := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	agree := flag.Bool("agree", false, "run two full sets and fail if any end-to-end metric differs by more than its bound")
	quick := flag.Bool("quick", false, "divide every count and the run length by 20 (a smoke test, not a measurement)")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		return 2
	}

	r := newReaper()
	defer r.killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		r.killAll()
		os.Exit(130)
	}()

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	ct, err := readContract(root)
	if err != nil {
		return fail(err)
	}
	e := &env{root: root, reaper: r, seed: *seed, ladderN: 1}
	e.sz = defaultSizes(min(runtime.NumCPU(), 4))
	e.seconds = time.Duration(*seconds * float64(time.Second))
	if *seconds == 0 {
		e.seconds = time.Duration(ct.RunSeconds) * time.Second
	}
	if *quick {
		e.sz, e.seconds, e.ladderN = e.sz.scaled(quickDiv), e.seconds/quickDiv, quickDiv
	}
	if e.bin, err = buildDaemon(root); err != nil {
		return fail(err)
	}

	switch {
	case *workloadFlag != "":
		return e.runContract(*workloadFlag, *traced == 1)
	case *agree:
		return e.runAgree(ct)
	}
	return e.runAll()
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// untraced is the gated run: setupRuns set-ups, an untimed warm-up round,
// whole rounds for e.seconds with tracing off, then the namespace check.
func (e *env) untraced(name string) (*result, error) {
	var setups []time.Duration
	var s *session
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.close()
		}
		wl, err := newWorkload(name, e.seed, e.sz)
		if err != nil {
			return nil, err
		}
		if s, err = setUp(e.reaper, e.bin, wl, e.sz.Lanes); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup)
	}
	defer s.close()
	if _, err := s.measure(s.laneClients(), 0, 1, false, nil); err != nil {
		return nil, err
	}
	sec, err := s.measure(s.laneClients(), e.seconds, 1, false, nil)
	if err != nil {
		return nil, err
	}
	if err := s.wl.Verify(s.clients[0]); err != nil {
		return nil, err
	}
	res := &result{Workload: name, Metrics: endToEndMetrics(sec, setups), Hash: s.hash.String()}
	res.book(sec)
	return res, nil
}

// traced is the per-layer run, against one cluster: a serial untraced pass
// (1 client, 1 op in flight, one round) for the counts; the next round
// again serially with spans recorded; a concurrent untraced stretch for the
// figures that need load; the namespace check; and, with the cluster gone,
// the in-process ladder.
func (e *env) traced(name string) (*result, error) {
	wl, err := newWorkload(name, e.seed, e.sz)
	if err != nil {
		return nil, err
	}
	s, err := setUp(e.reaper, e.bin, wl, e.sz.Lanes)
	if err != nil {
		return nil, err
	}
	defer s.close()
	m := map[string]float64{}
	res := &result{Workload: name, Metrics: m}

	// Both serial passes start on a fresh client, so both start cold.
	plain, err := s.freshClient(nil)
	if err != nil {
		return nil, err
	}
	serial, err := s.measure(plain, 0, 1, true, nil)
	if err != nil {
		return nil, err
	}
	res.book(serial)
	countMetrics(serial, m)

	tr := newTracer(s.cl.layerOf)
	watched, err := s.freshClient(tr)
	if err != nil {
		return nil, err
	}
	spanned, err := s.measure(watched, 0, 1, true, tr)
	if err != nil {
		return nil, err
	}
	res.book(spanned)

	if m["rpc.null_xproc_rtt_ns"], err = xprocNullRTT(s.cl.addrs("fms")[0], max(4000/e.ladderN, 8)); err != nil {
		return nil, err
	}

	load, err := s.measure(s.laneClients(), e.seconds*2/5, 1, false, nil)
	if err != nil {
		return nil, err
	}
	res.book(load)
	loadMetrics(load, m)
	res.Hash = s.hash.String()
	if err := s.wl.Verify(s.clients[0]); err != nil {
		return nil, err
	}
	s.close()

	lad, createKV, statKV, err := runLadder(e.ladderN)
	if err != nil {
		return nil, err
	}
	for k, v := range lad {
		m[k] = v
	}
	if err := tr.dump(filepath.Join(e.root, "benchmark", "out", "trace-"+name+".json")); err != nil {
		return nil, err
	}
	bd := breakdown(tr.spans)
	all := bd[""]
	m["client.self_us"], m["rpc.transit_us"] = all.Client, all.Transit
	m["fms.handler_us"], m["dms.handler_us"] = all.Handler["fms"], all.Handler["dms"]
	serialLog := mergeLogs(serial.Rounds)
	m["trace.overhead_pct"] = 100 * (ratio(summarize(mergeLogs(spanned.Rounds).all()).P50, summarize(serialLog.all()).P50) - 1)
	// Fig 9 on the wall clock: a serial op over TCP against the KV work under it.
	m["ladder.create_x_kv"] = ratio(summarize(serialLog.lat[kCreate]).P50*1e3, createKV.cost(lad))
	m["ladder.stat_x_kv"] = ratio(summarize(serialLog.lat[kStat]).P50*1e3, statKV.cost(lad))
	m["ladder.create_residual_pct"] = 0
	if c := bd["create"]; c != nil && c.Ops > 0 {
		// What the layers predict for a create: the client's own time and
		// the handlers' as traced, and one null RPC to another process per
		// call. What is left is what a real request costs in transit beyond
		// a null one.
		predicted := c.Client + c.Calls*m["rpc.null_xproc_rtt_ns"]/1e3
		for _, h := range c.Handler {
			predicted += h
		}
		m["ladder.create_residual_pct"] = 100 * (c.Total - predicted) / c.Total
	}
	return res, nil
}

// contractJSON is the object the contract wants on the last line of stdout.
type contractJSON struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract runs one workload as BENCHMARK.json's command and prints the
// result object. A model mismatch prints no result and exits non-zero; ops
// that failed are counted, reported, and also exit non-zero.
func (e *env) runContract(name string, withTrace bool) int {
	res, defs, err := e.runOne(name, withTrace)
	if err != nil {
		return fail(err)
	}
	out := contractJSON{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = contractValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	if res.Failed > 0 {
		return fail(fmt.Errorf("%s: %d of %d ops failed, first: %v", name, res.Failed, res.Attempted, res.FirstErr))
	}
	return 0
}

// runOne runs one workload traced or untraced and prints its table.
func (e *env) runOne(name string, withTrace bool) (*result, []metricDef, error) {
	defs, runFn := endToEnd, e.untraced
	if withTrace {
		defs, runFn = perLayer, e.traced
	}
	res, err := runFn(name)
	if err != nil {
		return nil, nil, err
	}
	printResult(res, defs)
	return res, defs, nil
}

func printResult(res *result, defs []metricDef) {
	fmt.Printf("== %s  seed-stream %s  rounds %d (%d set aside for steal)  ops attempted %d failed %d\n",
		res.Workload, res.Hash, res.Rounds, res.Disturbed, res.Attempted, res.Failed)
	l := res.Latency
	fmt.Printf("   latency: n=%d p50=%.1fus p%g=%.1fus\n", l.N, l.P50, l.TailQ*100, l.Tail)
	for _, d := range defs {
		fmt.Printf("   %-40s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
}

// runAll prints the whole ledger: every workload untraced, then traced.
func (e *env) runAll() int {
	fmt.Printf("locofs benchmark: seed %d, %d client lanes, %d CPUs, %v per run\n", e.seed, e.sz.Lanes, runtime.NumCPU(), e.seconds)
	failed := 0
	for _, name := range workloadNames {
		for _, withTrace := range []bool{false, true} {
			res, _, err := e.runOne(name, withTrace)
			if err != nil {
				return fail(err)
			}
			failed += res.Failed
		}
	}
	if failed > 0 {
		return fail(fmt.Errorf("%d ops failed", failed))
	}
	return 0
}

// runAgree runs two full sets back to back and compares them. Repetitions
// are interleaved across workloads, so a slow minute on the box lands on
// every workload rather than on all runs of one, and each set's figure is
// the median of its repetitions.
func (e *env) runAgree(ct contract) int {
	type set struct {
		e2e   map[string]map[string][]float64 // workload -> metric -> one value per repetition
		exact map[string]map[string]float64   // workload -> exact metric -> value
	}
	var sets [2]set
	for i := range sets {
		sets[i] = set{e2e: map[string]map[string][]float64{}, exact: map[string]map[string]float64{}}
		for rep := 0; rep < agreeReps; rep++ {
			for _, name := range workloadNames {
				res, err := e.untraced(name)
				if err != nil {
					return fail(err)
				}
				if res.Failed > 0 {
					return fail(fmt.Errorf("%s: %d ops failed, first: %v", name, res.Failed, res.FirstErr))
				}
				if sets[i].e2e[name] == nil {
					sets[i].e2e[name] = map[string][]float64{}
				}
				for k, v := range res.Metrics {
					sets[i].e2e[name][k] = append(sets[i].e2e[name][k], v)
				}
				fmt.Printf("set %d rep %d %-18s ops_per_s %.0f\n", i+1, rep+1, name, res.Metrics["ops_per_s"])
			}
		}
		for _, name := range workloadNames {
			res, err := e.traced(name)
			if err != nil {
				return fail(err)
			}
			sets[i].exact[name] = res.Metrics
		}
	}
	bad := 0
	for _, name := range workloadNames {
		for _, d := range ct.EndToEnd {
			a, b := median(sets[0].e2e[name][d.Name]), median(sets[1].e2e[name][d.Name])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if math.Abs(worse) > d.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("%-18s %-14s set1 %12.4f set2 %12.4f  diff %+6.1f%%  bound %4.0f%%  %s\n", name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
		names := append([]string(nil), exactMetrics...)
		sort.Strings(names)
		for _, k := range names {
			if a, b := sets[0].exact[name][k], sets[1].exact[name][k]; a != b {
				fmt.Printf("%-18s %-28s set1 %v set2 %v  NOT EXACT\n", name, k, a, b)
				bad++
			}
		}
	}
	if bad > 0 {
		return fail(fmt.Errorf("%d metrics disagree between two sets of the same code", bad))
	}
	fmt.Println("two sets agree within every bound; counts repeat exactly")
	return 0
}
