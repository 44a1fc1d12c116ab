// Package obs is how a LocoFS component is observed, and how a process
// keeps its black-box flight recorder.
//
// One Handle, passed at construction (nil = off), carries a component's
// four sinks — metrics registry, span tracer, flight journal, slow
// threshold — and one assembly, Process, builds handles the same way for a
// locofsd server, the locofsd client and every server of an in-process
// core.Cluster (DESIGN.md "Building a server"). The Process is also the
// recorder: an always-on journal of typed cluster events (breaker
// transitions, retries, dedup replays, lease recalls, map installs,
// migration batches, window rollovers, slow requests), anomaly rules over
// the journal's event rates and the SLO windows, and on a firing a one-shot
// diagnostic bundle — recent events, force-kept spans, status, goroutine
// and heap profiles — so the evidence of a fault outlives the fault.
// Process.Admin serves all of it, and the metrics, over HTTP.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/kv"
	"locofs/internal/slo"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
)

// Handle is one component's observability. Every field may be zero and a nil
// *Handle is valid: the methods below are nil-safe, so holders call them
// without enabled-checks.
type Handle struct {
	// Name is stamped on the spans and journal events the holder emits, and
	// is the server label of Reg ("fms-1", "client").
	Name string
	// Reg receives per-op counters and latency histograms.
	Reg *telemetry.Registry
	// Tracer receives request spans (nil when sampling is off).
	Tracer *trace.Tracer
	// Journal receives typed flight-recorder events.
	Journal *Journal
	// Slow is the slow-request log threshold (0 = no slow log).
	Slow time.Duration
}

// Registry returns h.Reg, nil for a nil handle.
func (h *Handle) Registry() *telemetry.Registry {
	if h == nil {
		return nil
	}
	return h.Reg
}

// StartSpan opens a span recorded under h.Name; nil when tracing is off.
func (h *Handle) StartSpan(traceID, parent uint64, name string) *trace.Span {
	if h == nil {
		return nil
	}
	return h.Tracer.StartSpan(traceID, parent, name, h.Name)
}

// Emit appends one event, sourced h.Name, to the journal.
func (h *Handle) Emit(kind Kind, op string, traceID uint64, value int64, detail string) {
	if h != nil {
		h.Journal.Emit(kind, h.Name, op, traceID, value, detail)
	}
}

// MetricDedupHits counts, per op, the duplicate requests a service answered
// from the record of their first execution: the FMS's window, a DMS node's
// replicated log (DESIGN.md §11).
const MetricDedupHits = "locofs_rpc_dedup_hits_total"

// Replayed accounts one duplicate of op answered from the record of its
// first execution: one MetricDedupHits count, created on first use, and one
// dedup_replay journal event under the duplicate's trace id.
func (h *Handle) Replayed(op string, traceID uint64) {
	if h == nil {
		return
	}
	if h.Reg != nil {
		h.Reg.Counter(MetricDedupHits, telemetry.L("op", op)).Inc()
	}
	h.Emit(KindDedupReplay, op, traceID, 0, "")
}

// IsSlow reports whether a request that took d belongs in the slow log.
func (h *Handle) IsSlow(d time.Duration) bool {
	return h != nil && h.Slow > 0 && d >= h.Slow
}

// Config assembles a Process.
type Config struct {
	// Name names the process ("dms", "fms-1", "cluster", ...).
	Name string
	// Tracer is the process's span tracer (nil = tracing off).
	Tracer *trace.Tracer
	// Status is what bundles freeze and the SLO rules watch (nil = the
	// status of the server Admin names).
	Status func() *slo.ServerStatus
	// Extra supplies component-specific bundle sections (nil = none).
	Extra func() map[string]any
	// Dir spools captured bundles to disk ("" = memory only).
	Dir string
	// Slow is the slow-request log threshold of every handle (0 = off).
	Slow time.Duration
	// Window sizes the rotating telemetry window of every registry (zero =
	// the telemetry defaults).
	Window telemetry.WindowConfig
	// Now is the journal and recorder clock (nil = time.Now; tests).
	Now func() time.Time
}

// Process is the observability one OS process shares, from which each
// server's Handle derives, and its flight recorder. A locofsd is a Process
// with one handle; a core.Cluster is a Process with a handle per server. The
// embedded Handle is the process-level one; its registry carries the
// process-wide series — the journal's and the recorder's counters — so they
// are exported exactly once.
type Process struct {
	Handle
	cfg  Config
	self StatusSource // the process's own server, once Admin has named it

	mu       sync.Mutex
	rules    map[string]*ruleState // per-rule firing history
	hist     map[string][]float64  // per-class p99 poll history (the step rule's baseline)
	fired    uint64                // lifetime rule firings
	bundles  []*Bundle             // newest last
	lastCap  time.Time             // last anomaly-triggered capture (the bundle gap)
	captures uint64

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
}

// New assembles a process. It starts nothing: call Start for the
// background anomaly poll, or Poll from your own loop.
func New(cfg Config) *Process {
	p := &Process{rules: make(map[string]*ruleState), hist: make(map[string][]float64), stop: make(chan struct{})}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Status == nil {
		cfg.Status = p.status
	}
	p.cfg = cfg
	reg := telemetry.NewRegistry(telemetry.L("server", cfg.Name))
	reg.SetWindow(cfg.Window)
	p.Handle = Handle{Name: cfg.Name, Reg: reg, Tracer: cfg.Tracer, Journal: newJournal(cfg.Now), Slow: cfg.Slow}
	p.Journal.registerMetrics(reg)
	reg.GaugeFunc(MetricAnomalies, func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.fired)
	})
	reg.GaugeFunc(MetricBundles, func() float64 { return float64(p.Captures()) })
	return p
}

// Export is what a handle's registry exports beyond the series its holders
// record: the two things the assembly's call sites differ in on purpose.
type Export struct {
	// Objectives exports SLO burn-rate gauges for these objectives. Nil
	// exports none: a cluster evaluates objectives on its merged status.
	Objectives []slo.Objective
	// Store exports this KV store's engine counters (nil = none).
	Store *kv.Instrumented
}

// For derives the handle of the server (or client) called name: the
// process's tracer, journal and slow threshold over a registry labelled
// server=name, windowed like every other, exporting build identity,
// span-ring accounting and window rollovers, plus whatever x asks for. The
// handle named like the process gets the process's own registry, and with it
// the process-wide series: a daemon's one handle exports them, and no
// server of a cluster does, so none takes them down with it.
func (p *Process) For(name string, x Export) *Handle {
	h := p.Handle
	h.Name = name
	if name != p.Name {
		h.Reg = telemetry.NewRegistry(telemetry.L("server", name))
		h.Reg.SetWindow(p.cfg.Window)
	}
	telemetry.RegisterBuildInfo(h.Reg)
	trace.RegisterMetrics(h.Reg, p.Tracer)
	// Half a window apart: histograms created a little apart roll over once,
	// and every window still gets its event.
	h.Reg.SetRotateHook(windowRollHook(p.Journal, name, h.Reg.Window().Width/2))
	if x.Store != nil {
		registerKVGauges(h.Reg, x.Store)
	}
	if x.Objectives != nil {
		slo.NewTracker(h.Reg, x.Objectives).Export(h.Reg)
	}
	return &h
}

// registerKVGauges exports the store's live KV engine counters on reg as
// gauges sampled at scrape time.
func registerKVGauges(reg *telemetry.Registry, store *kv.Instrumented) {
	c := store.Counters()
	sample := func(get func(kv.CountersSnapshot) uint64) func() float64 {
		return func() float64 { return float64(get(c.Snapshot())) }
	}
	reg.GaugeFunc("locofs_kv_ops_total", sample(func(s kv.CountersSnapshot) uint64 { return s.Gets }), telemetry.L("op", "get"))
	reg.GaugeFunc("locofs_kv_ops_total", sample(func(s kv.CountersSnapshot) uint64 { return s.Puts }), telemetry.L("op", "put"))
	reg.GaugeFunc("locofs_kv_ops_total", sample(func(s kv.CountersSnapshot) uint64 { return s.Deletes }), telemetry.L("op", "delete"))
	reg.GaugeFunc("locofs_kv_ops_total", sample(func(s kv.CountersSnapshot) uint64 { return s.Patches }), telemetry.L("op", "patch"))
	reg.GaugeFunc("locofs_kv_ops_total", sample(func(s kv.CountersSnapshot) uint64 { return s.Appends }), telemetry.L("op", "append"))
	reg.GaugeFunc("locofs_kv_ops_total", sample(func(s kv.CountersSnapshot) uint64 { return s.Scans }), telemetry.L("op", "scan"))
	reg.GaugeFunc("locofs_kv_bytes_total", sample(func(s kv.CountersSnapshot) uint64 { return s.BytesRead }), telemetry.L("dir", "read"))
	reg.GaugeFunc("locofs_kv_bytes_total", sample(func(s kv.CountersSnapshot) uint64 { return s.BytesWritten }), telemetry.L("dir", "written"))
}
