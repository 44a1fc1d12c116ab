// Package slo turns the windowed telemetry of a LocoFS process into
// service-level-objective tracking: each operation class declares a latency
// objective (a target at a percentile plus an error budget — the allowed
// fraction of events over the target), and the rotating-window histograms
// already recorded by the RPC and client layers yield per-window good/bad
// event counts, a burn rate ("at this rate, how fast is the budget being
// consumed?") and the remaining lifetime error budget.
//
// The package is deliberately read-only over internal/telemetry: nothing on
// a hot path records into it. Evaluation walks registry snapshots on
// demand (admin scrape, /debug/slo, the cluster aggregator), so the cost of
// SLO tracking is paid by the observer, not the serving path.
package slo

import (
	"time"

	"locofs/internal/telemetry"
)

// Metric families the default objectives watch. They mirror the constants
// in internal/rpc (not imported, to keep slo's dependency surface at
// telemetry only).
const (
	MetricService = "locofs_rpc_service_seconds"
	MetricQueue   = "locofs_rpc_queue_seconds"
	MetricRTT     = "locofs_client_rtt_seconds"
)

// Objective is one op class's latency target: at most Budget of events may
// exceed Target, judged at Percentile for the headline latency number.
type Objective struct {
	// Class names the objective (e.g. "md_read").
	Class string `json:"class"`
	// Metric is the histogram family watched (MetricService on servers,
	// MetricRTT on clients).
	Metric string `json:"metric"`
	// Target is the latency objective: events slower than this are "bad".
	Target time.Duration `json:"target_ns"`
	// Percentile is the headline quantile reported against Target (e.g.
	// 0.95 → "p95 must be under Target").
	Percentile float64 `json:"percentile"`
	// Budget is the allowed bad-event fraction (e.g. 0.01 → 99% of events
	// within Target).
	Budget float64 `json:"budget"`
	// Ops restricts the objective to these op labels; empty means every op
	// the classifier maps to Class (see ClassOf), and nil Ops with an
	// unknown Class means every op in the family.
	Ops []string `json:"ops,omitempty"`
}

// covers reports whether the objective includes op.
func (o Objective) covers(op string) bool {
	if len(o.Ops) > 0 {
		for _, x := range o.Ops {
			if x == op {
				return true
			}
		}
		return false
	}
	if c := ClassOf(op); c != classOther {
		return c == o.Class
	}
	return false
}

// Operation classes: metadata reads, metadata mutations, data-path ops, and
// everything else (control plane, migration).
const (
	ClassMDRead   = "md_read"
	ClassMDMutate = "md_mutate"
	ClassData     = "data"
	classOther    = "other"
)

// ClassOf maps a wire op name to its SLO class.
func ClassOf(op string) string {
	switch op {
	case "StatDir", "ReaddirSubdirs", "LookupDir", "StatFile", "OpenFile",
		"ReaddirFiles", "DirHasFiles", "AccessFile":
		return ClassMDRead
	case "Mkdir", "Rmdir", "RenameDir", "ChmodDir", "ChownDir",
		"CreateFile", "RemoveFile", "CloseFile", "ChmodFile", "ChownFile",
		"UtimensFile", "TruncateFile", "UpdateSize", "RenameFile":
		return ClassMDMutate
	case "PutBlock", "GetBlock", "DeleteBlocks":
		return ClassData
	default:
		return classOther
	}
}

// ServerObjectives is the default objective set for a metadata/data server,
// judged on handler service time: metadata reads p95 ≤ 1 ms, metadata
// mutations p95 ≤ 5 ms, data ops p95 ≤ 20 ms, each with a 1% error budget.
// (The paper's metadata path runs in tens of microseconds; the targets
// leave headroom for queueing before the budget burns.)
func ServerObjectives() []Objective {
	return []Objective{
		{Class: ClassMDRead, Metric: MetricService, Target: time.Millisecond, Percentile: 0.95, Budget: 0.01},
		{Class: ClassMDMutate, Metric: MetricService, Target: 5 * time.Millisecond, Percentile: 0.95, Budget: 0.01},
		{Class: ClassData, Metric: MetricService, Target: 20 * time.Millisecond, Percentile: 0.95, Budget: 0.01},
	}
}

// ClientObjectives is the default objective set for a client, judged on
// wall-clock round trips (link + queue + service + retries).
func ClientObjectives() []Objective {
	return []Objective{
		{Class: ClassMDRead, Metric: MetricRTT, Target: 5 * time.Millisecond, Percentile: 0.95, Budget: 0.01},
		{Class: ClassMDMutate, Metric: MetricRTT, Target: 10 * time.Millisecond, Percentile: 0.95, Budget: 0.01},
		{Class: ClassData, Metric: MetricRTT, Target: 50 * time.Millisecond, Percentile: 0.95, Budget: 0.01},
	}
}

// ClassStatus is one objective's evaluation: the time-local window view
// (burn rate) plus the lifetime budget position. Latencies are float
// seconds for JSON readability; Buckets carries the windowed log-bucket
// counts so cluster-level merges recompute quantiles exactly rather than
// averaging percentiles.
type ClassStatus struct {
	Class      string  `json:"class"`
	Metric     string  `json:"metric"`
	TargetSec  float64 `json:"target_s"`
	Percentile float64 `json:"percentile"`
	Budget     float64 `json:"budget"`

	// Windowed (time-local) view.
	WindowCount uint64   `json:"window_count"`
	WindowBad   uint64   `json:"window_bad"`
	WindowPSec  float64  `json:"window_p_s"` // measured latency at Percentile
	RatePerSec  float64  `json:"rate_per_sec"`
	CoveredSec  float64  `json:"covered_s"`
	BurnRate    float64  `json:"burn_rate"` // bad-fraction / budget; 1.0 = burning exactly at budget
	Met         bool     `json:"met"`
	Buckets     []uint64 `json:"buckets,omitempty"`
	SumSec      float64  `json:"sum_s"`
	MaxSec      float64  `json:"max_s"`

	// Lifetime view.
	TotalCount      uint64  `json:"total_count"`
	TotalBad        uint64  `json:"total_bad"`
	BudgetRemaining float64 `json:"budget_remaining"` // 1 = untouched, 0 = exhausted, <0 = overspent
}

// Tracker evaluates a set of objectives against one registry.
type Tracker struct {
	reg  *telemetry.Registry
	objs []Objective
}

// NewTracker builds a tracker over reg. A nil/empty objective set means
// ServerObjectives.
func NewTracker(reg *telemetry.Registry, objs []Objective) *Tracker {
	if len(objs) == 0 {
		objs = ServerObjectives()
	}
	return &Tracker{reg: reg, objs: objs}
}

// Objectives returns the tracked objective set.
func (t *Tracker) Objectives() []Objective { return t.objs }

// Eval computes every objective's current status from the registry's
// windowed and cumulative histograms.
func (t *Tracker) Eval() []ClassStatus {
	wins := t.reg.WindowMetrics()
	// HistogramMetrics, not Snapshot: Eval runs inside the gauge callbacks
	// Export registers, and Snapshot invokes gauges — recursion otherwise.
	cums := t.reg.HistogramMetrics()
	out := make([]ClassStatus, 0, len(t.objs))
	for _, o := range t.objs {
		var wm telemetry.HistSnapshot
		var covered time.Duration
		for _, w := range wins {
			if w.Name != o.Metric || !o.covers(telemetry.LabelValue(w.Labels, "op")) {
				continue
			}
			wm = mergeHist(wm, w.Win.Merged)
			if w.Win.Covered > covered {
				covered = w.Win.Covered
			}
		}
		var tm telemetry.HistSnapshot
		for _, m := range cums {
			if m.Name != o.Metric || !o.covers(telemetry.LabelValue(m.Labels, "op")) {
				continue
			}
			tm = mergeHist(tm, m.Hist)
		}
		out = append(out, evalClass(o, wm, covered, tm))
	}
	return out
}

// evalClass scores one objective from its merged windowed and lifetime
// distributions.
func evalClass(o Objective, win telemetry.HistSnapshot, covered time.Duration, life telemetry.HistSnapshot) ClassStatus {
	cs := ClassStatus{
		Class:      o.Class,
		Metric:     o.Metric,
		TargetSec:  o.Target.Seconds(),
		Percentile: o.Percentile,
		Budget:     o.Budget,
		Met:        true,
	}
	cs.WindowCount = win.Count
	cs.WindowBad = win.Count - win.CountAtMost(o.Target)
	cs.WindowPSec = win.Quantile(o.Percentile).Seconds()
	cs.CoveredSec = covered.Seconds()
	cs.SumSec = win.Sum.Seconds()
	cs.MaxSec = win.Max.Seconds()
	cs.Buckets = TrimBuckets(win.Buckets[:])
	if covered > 0 {
		cs.RatePerSec = float64(win.Count) / covered.Seconds()
	}
	if win.Count > 0 && o.Budget > 0 {
		cs.BurnRate = (float64(cs.WindowBad) / float64(win.Count)) / o.Budget
		cs.Met = cs.BurnRate <= 1
	}
	cs.TotalCount = life.Count
	cs.TotalBad = life.Count - life.CountAtMost(o.Target)
	cs.BudgetRemaining = 1
	if life.Count > 0 && o.Budget > 0 {
		cs.BudgetRemaining = 1 - (float64(cs.TotalBad)/float64(life.Count))/o.Budget
	}
	return cs
}

// MergeClassStatuses combines the same objective evaluated on several
// servers into one cluster-level status: event counts add, the headline
// percentile is recomputed from the summed log buckets, and burn/budget are
// re-derived from the totals.
func MergeClassStatuses(statuses []ClassStatus) ClassStatus {
	if len(statuses) == 0 {
		return ClassStatus{Met: true, BudgetRemaining: 1}
	}
	out := statuses[0]
	win := HistFromBuckets(statuses[0].Buckets, statuses[0].SumSec, statuses[0].MaxSec)
	for _, cs := range statuses[1:] {
		out.WindowCount += cs.WindowCount
		out.WindowBad += cs.WindowBad
		out.TotalCount += cs.TotalCount
		out.TotalBad += cs.TotalBad
		if cs.CoveredSec > out.CoveredSec {
			out.CoveredSec = cs.CoveredSec
		}
		win = mergeHist(win, HistFromBuckets(cs.Buckets, cs.SumSec, cs.MaxSec))
	}
	out.WindowPSec = win.Quantile(out.Percentile).Seconds()
	out.SumSec = win.Sum.Seconds()
	out.MaxSec = win.Max.Seconds()
	out.Buckets = TrimBuckets(win.Buckets[:])
	out.RatePerSec = 0
	if out.CoveredSec > 0 {
		out.RatePerSec = float64(out.WindowCount) / out.CoveredSec
	}
	out.BurnRate = 0
	out.Met = true
	if out.WindowCount > 0 && out.Budget > 0 {
		out.BurnRate = (float64(out.WindowBad) / float64(out.WindowCount)) / out.Budget
		out.Met = out.BurnRate <= 1
	}
	out.BudgetRemaining = 1
	if out.TotalCount > 0 && out.Budget > 0 {
		out.BudgetRemaining = 1 - (float64(out.TotalBad)/float64(out.TotalCount))/out.Budget
	}
	return out
}

// Export registers the tracker's headline numbers as gauges on reg, sampled
// at scrape time:
//
//	locofs_slo_burn_rate{class=...}
//	locofs_slo_budget_remaining{class=...}
//	locofs_slo_window_p_seconds{class=...}
func (t *Tracker) Export(reg *telemetry.Registry) {
	for _, o := range t.objs {
		o := o
		label := telemetry.L("class", o.Class)
		pick := func(get func(ClassStatus) float64) func() float64 {
			return func() float64 {
				for _, cs := range t.Eval() {
					if cs.Class == o.Class && cs.Metric == o.Metric {
						return get(cs)
					}
				}
				return 0
			}
		}
		reg.GaugeFunc("locofs_slo_burn_rate", pick(func(cs ClassStatus) float64 { return cs.BurnRate }), label)
		reg.GaugeFunc("locofs_slo_budget_remaining", pick(func(cs ClassStatus) float64 { return cs.BudgetRemaining }), label)
		reg.GaugeFunc("locofs_slo_window_p_seconds", pick(func(cs ClassStatus) float64 { return cs.WindowPSec }), label)
	}
}

// mergeHist adds two distributions bucket-wise.
func mergeHist(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	var s telemetry.HistSnapshot
	var n uint64
	for i := range a.Buckets {
		s.Buckets[i] = a.Buckets[i] + b.Buckets[i]
		n += s.Buckets[i]
	}
	s.Count = n
	s.Sum = a.Sum + b.Sum
	s.Max = a.Max
	if b.Max > s.Max {
		s.Max = b.Max
	}
	return s
}

// TrimBuckets drops trailing zero buckets so JSON stays compact; missing
// tail buckets read as zero on the way back in.
func TrimBuckets(b []uint64) []uint64 {
	top := -1
	for i, c := range b {
		if c > 0 {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	out := make([]uint64, top+1)
	copy(out, b[:top+1])
	return out
}

// HistFromBuckets reconstructs a distribution from trimmed log buckets plus
// its sum and max (in seconds) — the inverse of the OpWindow/ClassStatus
// wire form, used for exact cross-server quantile merging.
func HistFromBuckets(buckets []uint64, sumSec, maxSec float64) telemetry.HistSnapshot {
	var s telemetry.HistSnapshot
	var n uint64
	for i, c := range buckets {
		if i >= telemetry.NumBuckets {
			break
		}
		s.Buckets[i] = c
		n += c
	}
	s.Count = n
	s.Sum = time.Duration(sumSec * float64(time.Second))
	s.Max = time.Duration(maxSec * float64(time.Second))
	return s
}
