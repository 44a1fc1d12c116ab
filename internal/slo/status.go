package slo

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"locofs/internal/telemetry"
)

// OpWindow is one operation's windowed latency summary as exported by a
// server's /debug/slo endpoint. Besides the human-facing quantiles it
// carries the raw log-bucket counts, so the cluster aggregator merges
// distributions exactly (summing buckets and recomputing quantiles) instead
// of averaging percentiles across servers — which is statistically wrong.
type OpWindow struct {
	Op         string   `json:"op"`
	Count      uint64   `json:"count"`
	RatePerSec float64  `json:"rate_per_sec"`
	CoveredSec float64  `json:"covered_s"`
	P50Sec     float64  `json:"p50_s"`
	P95Sec     float64  `json:"p95_s"`
	P99Sec     float64  `json:"p99_s"`
	MaxSec     float64  `json:"max_s"`
	MeanSec    float64  `json:"mean_s"`
	SumSec     float64  `json:"sum_s"`
	Buckets    []uint64 `json:"buckets,omitempty"`
}

// opWindowFrom summarizes one windowed snapshot.
func opWindowFrom(op string, win telemetry.WindowedSnapshot) OpWindow {
	m := win.Merged
	ow := OpWindow{
		Op:         op,
		Count:      m.Count,
		RatePerSec: win.Rate(),
		CoveredSec: win.Covered.Seconds(),
		P50Sec:     m.Quantile(0.50).Seconds(),
		P95Sec:     m.Quantile(0.95).Seconds(),
		P99Sec:     m.Quantile(0.99).Seconds(),
		MaxSec:     m.Max.Seconds(),
		MeanSec:    m.Mean().Seconds(),
		SumSec:     m.Sum.Seconds(),
		Buckets:    TrimBuckets(m.Buckets[:]),
	}
	return ow
}

// mergeOpWindows combines the same op observed on several servers.
func mergeOpWindows(wins []OpWindow) OpWindow {
	out := wins[0]
	h := HistFromBuckets(out.Buckets, out.SumSec, out.MaxSec)
	for _, w := range wins[1:] {
		out.Count += w.Count
		if w.CoveredSec > out.CoveredSec {
			out.CoveredSec = w.CoveredSec
		}
		h = mergeHist(h, HistFromBuckets(w.Buckets, w.SumSec, w.MaxSec))
	}
	out.P50Sec = h.Quantile(0.50).Seconds()
	out.P95Sec = h.Quantile(0.95).Seconds()
	out.P99Sec = h.Quantile(0.99).Seconds()
	out.MaxSec = h.Max.Seconds()
	out.MeanSec = h.Mean().Seconds()
	out.SumSec = h.Sum.Seconds()
	out.Buckets = TrimBuckets(h.Buckets[:])
	out.RatePerSec = 0
	if out.CoveredSec > 0 {
		out.RatePerSec = float64(out.Count) / out.CoveredSec
	}
	return out
}

// HotEntry is one hot key reported by a server's TopK sketch.
type HotEntry struct {
	Source string `json:"source"`
	Key    string `json:"key"`
	Count  uint64 `json:"count"`
}

// AnomalyState is one flight-recorder rule's most recent firing state, as
// carried by a server's status and merged into the cluster view. Defined
// here (not in internal/obs) so slo stays the bottom of the status
// dependency graph: obs imports slo, never the reverse.
type AnomalyState struct {
	Source string `json:"source,omitempty"` // emitting process ("" until merged)
	Rule   string `json:"rule"`
	Count  uint64 `json:"count"`   // lifetime firings of this rule
	LastNS int64  `json:"last_ns"` // unix ns of the most recent firing
	Detail string `json:"detail,omitempty"`
}

// ServerStatus is one process's health snapshot: identity, windowed per-op
// latency for each metric family, SLO evaluation, cumulative counters and
// gauges, and its hottest keys. It is the JSON body of /debug/slo and the
// unit the cluster aggregator merges.
type ServerStatus struct {
	Server         string  `json:"server"`
	Version        string  `json:"version"`
	GoVersion      string  `json:"go_version"`
	UptimeSec      float64 `json:"uptime_s"`
	MapVer         uint64  `json:"map_ver,omitempty"`
	WindowWidthSec float64 `json:"window_width_s"`
	WindowNum      int     `json:"window_num"`

	Service []OpWindow `json:"service,omitempty"` // handler service time per op
	Queue   []OpWindow `json:"queue,omitempty"`   // queue wait per op
	RTT     []OpWindow `json:"rtt,omitempty"`     // client round trips per op

	SLO       []ClassStatus      `json:"slo,omitempty"`
	Counters  map[string]float64 `json:"counters,omitempty"`
	Hot       []HotEntry         `json:"hot,omitempty"`
	Anomalies []AnomalyState     `json:"anomalies,omitempty"`

	// Err is set by the aggregator when this server could not be scraped;
	// a server never reports it about itself.
	Err string `json:"err,omitempty"`
}

// CollectOptions parameterize Collect.
type CollectOptions struct {
	// Server names the process (e.g. "fms-2"); "" falls back to the
	// registry's server base label if present.
	Server string
	// MapVer is the version of the cluster map the process currently holds
	// (0 = none installed).
	MapVer uint64
	// Objectives evaluated against the registry (nil = ServerObjectives).
	Objectives []Objective
	// Hot carries the process's TopK entries, already flattened.
	Hot []HotEntry
	// Anomalies carries the process's flight-recorder rule state.
	Anomalies []AnomalyState
}

// Collect builds a ServerStatus from one process's registry.
func Collect(reg *telemetry.Registry, opts CollectOptions) *ServerStatus {
	st := &ServerStatus{
		Server:    opts.Server,
		Version:   telemetry.Version,
		GoVersion: runtime.Version(),
		UptimeSec: telemetry.Uptime().Seconds(),
		MapVer:    opts.MapVer,
		Hot:       opts.Hot,
		Anomalies: opts.Anomalies,
	}
	cfg := reg.Window()
	st.WindowWidthSec = cfg.Width.Seconds()
	st.WindowNum = cfg.Num

	for _, wm := range reg.WindowMetrics() {
		op := telemetry.LabelValue(wm.Labels, "op")
		if st.Server == "" {
			if s := telemetry.LabelValue(wm.Labels, "server"); s != "" {
				st.Server = s
			}
		}
		ow := opWindowFrom(op, wm.Win)
		switch wm.Name {
		case MetricService:
			st.Service = append(st.Service, ow)
		case MetricQueue:
			st.Queue = append(st.Queue, ow)
		case MetricRTT:
			st.RTT = append(st.RTT, ow)
		}
	}

	st.SLO = NewTracker(reg, opts.Objectives).Eval()

	st.Counters = make(map[string]float64)
	for _, m := range reg.Snapshot().Metrics {
		if m.Kind == telemetry.KindHistogram {
			continue
		}
		// The synthetic per-window gauges are redundant with the OpWindow
		// sections (and carry quantiles, which must not be summed).
		if strings.Contains(m.Name, "_window") {
			continue
		}
		st.Counters[m.Name+m.Labels] = m.Value
	}
	return st
}

// ClusterStatus is the merged, cluster-wide health snapshot served by
// /debug/cluster: every reachable server's status, cluster-level per-op
// windows and SLO classes recomputed from summed buckets, the newest cluster
// map version and whether every process holding a map agrees on it (DMS
// replicas, FMS and OSS alike), and the peers that failed to scrape.
type ClusterStatus struct {
	AsOf         time.Time          `json:"as_of"`
	MapVer       uint64             `json:"map_ver"`
	MapAgreement bool               `json:"map_agreement"`
	Servers      []*ServerStatus    `json:"servers"`
	Unreachable  []string           `json:"unreachable,omitempty"`
	Service      []OpWindow         `json:"service,omitempty"`
	RTT          []OpWindow         `json:"rtt,omitempty"`
	SLO          []ClassStatus      `json:"slo,omitempty"`
	Counters     map[string]float64 `json:"counters,omitempty"`
	Hot          []HotEntry         `json:"hot,omitempty"`
	Anomalies    []AnomalyState     `json:"anomalies,omitempty"`
}

// MergeCluster folds per-server statuses into one cluster view. Statuses
// are sorted by server name; unreachable lists servers whose scrape failed
// (their partial identity may still appear in Servers with Err set, if the
// caller chose to include them).
func MergeCluster(statuses []*ServerStatus, unreachable []string) *ClusterStatus {
	cs := &ClusterStatus{
		AsOf:         time.Now(),
		MapAgreement: true,
		Unreachable:  unreachable,
		Counters:     make(map[string]float64),
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Server < statuses[j].Server })
	cs.Servers = statuses

	svc := make(map[string][]OpWindow)
	rtt := make(map[string][]OpWindow)
	slos := make(map[string][]ClassStatus)
	var sloOrder []string
	for _, st := range statuses {
		if st == nil {
			continue
		}
		if st.MapVer > 0 {
			if cs.MapVer > 0 && st.MapVer != cs.MapVer {
				cs.MapAgreement = false
			}
			cs.MapVer = max(cs.MapVer, st.MapVer)
		}
		for _, ow := range st.Service {
			svc[ow.Op] = append(svc[ow.Op], ow)
		}
		for _, ow := range st.RTT {
			rtt[ow.Op] = append(rtt[ow.Op], ow)
		}
		for _, c := range st.SLO {
			k := c.Metric + "/" + c.Class
			if _, ok := slos[k]; !ok {
				sloOrder = append(sloOrder, k)
			}
			slos[k] = append(slos[k], c)
		}
		for k, v := range st.Counters {
			cs.Counters[k] += v
		}
		cs.Hot = append(cs.Hot, st.Hot...)
		for _, a := range st.Anomalies {
			if a.Source == "" {
				a.Source = st.Server
			}
			cs.Anomalies = append(cs.Anomalies, a)
		}
	}
	cs.Service = mergeOpMap(svc)
	cs.RTT = mergeOpMap(rtt)
	for _, k := range sloOrder {
		cs.SLO = append(cs.SLO, MergeClassStatuses(slos[k]))
	}
	sort.Slice(cs.Hot, func(i, j int) bool { return cs.Hot[i].Count > cs.Hot[j].Count })
	sort.Slice(cs.Anomalies, func(i, j int) bool { return cs.Anomalies[i].LastNS > cs.Anomalies[j].LastNS })
	return cs
}

func mergeOpMap(m map[string][]OpWindow) []OpWindow {
	out := make([]OpWindow, 0, len(m))
	for _, wins := range m {
		out = append(out, mergeOpWindows(wins))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}

// fmtDur renders float seconds compactly for the status tables.
func fmtDur(sec float64) string {
	if sec <= 0 {
		return "-"
	}
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// SumCounter totals every label series of one metric name in the merged
// counter map (whose keys are name+canonical-labels).
func (cs *ClusterStatus) SumCounter(name string) float64 {
	var s float64
	for k, v := range cs.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// Flight-recorder and lease metric names rendered by Format. Spelled out
// rather than imported (obs and dms both sit above slo in the dependency
// graph).
const (
	metricFlightEvents      = "locofs_flight_events_total"
	metricFlightOverwritten = "locofs_flight_overwritten_total"
	metricFlightBundles     = "locofs_flight_bundles_total"
	metricLeaseGrants       = "locofs_dms_lease_grants_total"
	metricLeaseRecalls      = "locofs_dms_lease_recalls_total"
	metricLeaseSuppressed   = "locofs_dms_lease_recalls_suppressed_total"
	metricDirCachePrefix    = "locofs_client_dircache_"
)

// Format writes the cluster status as the human-readable table behind
// `locofsd status`.
func (cs *ClusterStatus) Format(w io.Writer) {
	fmt.Fprintf(w, "cluster: map version %d (agreement: %s), %d server(s) up, %d unreachable\n",
		cs.MapVer, yesNo(cs.MapAgreement), len(cs.Servers), len(cs.Unreachable))
	if len(cs.Unreachable) > 0 {
		fmt.Fprintf(w, "unreachable: %s\n", strings.Join(cs.Unreachable, ", "))
	}
	if ev := cs.SumCounter(metricFlightEvents); ev > 0 || len(cs.Anomalies) > 0 {
		fmt.Fprintf(w, "flight: %.0f event(s) journaled (%.0f overwritten), %.0f bundle(s), %d anomaly rule(s) fired\n",
			ev, cs.SumCounter(metricFlightOverwritten), cs.SumCounter(metricFlightBundles), len(cs.Anomalies))
		for _, a := range cs.Anomalies {
			fmt.Fprintf(w, "  anomaly %s@%s: x%d, last %s  %s\n",
				a.Rule, a.Source, a.Count, time.Unix(0, a.LastNS).Format(time.RFC3339), a.Detail)
		}
	}
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SERVER\tVERSION\tUPTIME\tMAP\tOPS(WIN)\tWORST BURN")
	for _, st := range cs.Servers {
		if st == nil {
			continue
		}
		var ops uint64
		for _, ow := range st.Service {
			ops += ow.Count
		}
		for _, ow := range st.RTT {
			ops += ow.Count
		}
		worst := 0.0
		for _, c := range st.SLO {
			if c.BurnRate > worst {
				worst = c.BurnRate
			}
		}
		mapVer := "-"
		if st.MapVer > 0 {
			mapVer = fmt.Sprintf("%d", st.MapVer)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%.2f\n",
			st.Server, st.Version, time.Duration(st.UptimeSec*float64(time.Second)).Round(time.Second),
			mapVer, ops, worst)
	}
	tw.Flush()
	fmt.Fprintln(w)

	if len(cs.SLO) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "SLO CLASS\tMETRIC\tTARGET\tP(WIN)\tRATE/S\tBURN\tBUDGET LEFT\tMET")
		for _, c := range cs.SLO {
			fmt.Fprintf(tw, "%s\tp%.0f %s\t%s\t%s\t%.0f\t%.2f\t%.3f\t%s\n",
				c.Class, c.Percentile*100, strings.TrimSuffix(strings.TrimPrefix(c.Metric, "locofs_"), "_seconds"),
				fmtDur(c.TargetSec), fmtDur(c.WindowPSec), c.RatePerSec, c.BurnRate, c.BudgetRemaining, yesNo(c.Met))
		}
		tw.Flush()
		fmt.Fprintln(w)
	}

	if len(cs.Service) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "OP (service, cluster)\tCOUNT\tRATE/S\tP50\tP95\tP99\tMAX")
		for _, ow := range cs.Service {
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%s\t%s\t%s\t%s\n", ow.Op, ow.Count, ow.RatePerSec,
				fmtDur(ow.P50Sec), fmtDur(ow.P95Sec), fmtDur(ow.P99Sec), fmtDur(ow.MaxSec))
		}
		tw.Flush()
	}

	// Lease/cache coherence section: the PR-7 dircache counters summed over
	// every client plus the DMS lease-table totals, so cache health is
	// visible cluster-wide and not just per process.
	hits := cs.SumCounter(metricDirCachePrefix + "hits_total")
	misses := cs.SumCounter(metricDirCachePrefix + "misses_total")
	grants := cs.SumCounter(metricLeaseGrants)
	if hits+misses+grants > 0 {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "CACHE/LEASES\tVALUE")
		ratio := 0.0
		if hits+misses > 0 {
			ratio = hits / (hits + misses)
		}
		fmt.Fprintf(tw, "dircache hits\t%.0f (%.0f neg, %.0f list; %.1f%% hit rate)\n",
			hits, cs.SumCounter(metricDirCachePrefix+"neg_hits_total"),
			cs.SumCounter(metricDirCachePrefix+"list_hits_total"), 100*ratio)
		fmt.Fprintf(tw, "dircache misses\t%.0f (%.0f stale)\n",
			misses, cs.SumCounter(metricDirCachePrefix+"stale_total"))
		fmt.Fprintf(tw, "dircache entries\t%.0f (%.0f evictions, %.0f recalls applied)\n",
			cs.SumCounter(metricDirCachePrefix+"entries"),
			cs.SumCounter(metricDirCachePrefix+"evictions_total"),
			cs.SumCounter(metricDirCachePrefix+"recalls_total"))
		fmt.Fprintf(tw, "leases granted\t%.0f\n", grants)
		fmt.Fprintf(tw, "lease recalls\t%.0f published, %.0f suppressed\n",
			cs.SumCounter(metricLeaseRecalls), cs.SumCounter(metricLeaseSuppressed))
		tw.Flush()
	}

	if len(cs.Hot) > 0 {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "HOT KEY\tSOURCE\tCOUNT")
		n := len(cs.Hot)
		if n > 10 {
			n = 10
		}
		for _, h := range cs.Hot[:n] {
			fmt.Fprintf(tw, "%s\t%s\t%d\n", h.Key, h.Source, h.Count)
		}
		tw.Flush()
	}
}
