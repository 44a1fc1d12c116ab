// Package obs is how a LocoFS component is observed: one Handle, passed at
// construction (nil = off), carrying the four sinks that used to be wired
// one setter at a time — metrics registry, span tracer, flight journal, slow
// threshold — and one assembly, Process, that builds handles the same way
// for a locofsd server, the locofsd client and every server of an in-process
// core.Cluster (DESIGN.md "Building a server").
package obs

import (
	"time"

	"locofs/internal/flight"
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
	Journal *flight.Journal
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
func (h *Handle) Emit(kind flight.Kind, op string, traceID uint64, value int64, detail string) {
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
	h.Emit(flight.KindDedupReplay, op, traceID, 0, "")
}

// IsSlow reports whether a request that took d belongs in the slow log.
func (h *Handle) IsSlow(d time.Duration) bool {
	return h != nil && h.Slow > 0 && d >= h.Slow
}

// Process is the observability one OS process shares — one journal, one
// tracer, one recorder — from which each server's Handle derives. A locofsd
// is a Process with one handle; a core.Cluster is a Process with a handle
// per server. The embedded Handle is the process-level one: no registry,
// since registries are per server.
type Process struct {
	Handle
	Recorder *flight.Recorder

	window telemetry.WindowConfig
	self   StatusSource // the process's own server, once Admin has named it
}

// New assembles a process's recorder from rec (rec.Server names the
// process; a nil rec.Journal makes a fresh one of rec.BufEvents) and the
// process-level handle over it. A rec with neither a Status nor an SLO feed
// watches the process's own status (see Admin).
func New(rec flight.Config, slow time.Duration, window telemetry.WindowConfig) *Process {
	p := &Process{window: window}
	if rec.Status == nil && rec.SLO == nil {
		rec.Status = p.status
	}
	p.Recorder = flight.New(rec)
	p.Handle = Handle{Name: rec.Server, Tracer: rec.Tracer, Journal: p.Recorder.Journal(), Slow: slow}
	return p
}

// Export is what a handle's registry exports beyond the series its holders
// record: the three things the assembly's call sites differ in on purpose.
type Export struct {
	// Objectives exports SLO burn-rate gauges for these objectives. Nil
	// exports none: a cluster evaluates objectives on its merged status.
	Objectives []slo.Objective
	// Store exports this KV store's engine counters (nil = none).
	Store *kv.Instrumented
	// Recorder exports the process's journal and recorder counters. They are
	// process-wide, so exactly one handle of a process sets it, or a merged
	// view would count them once per server.
	Recorder bool
}

// For derives the handle of the server (or client) called name: the
// process's tracer, journal and slow threshold over a registry of its own,
// labelled server=name, windowed like every other, exporting build identity,
// span-ring accounting and window rollovers, plus whatever x asks for.
func (p *Process) For(name string, x Export) *Handle {
	reg := telemetry.NewRegistry(telemetry.L("server", name))
	reg.SetWindow(p.window)
	telemetry.RegisterBuildInfo(reg)
	trace.RegisterMetrics(reg, p.Tracer)
	reg.SetRotateHook(flight.WindowRollEmitter(p.Journal, name, 0))
	if x.Store != nil {
		registerKVGauges(reg, x.Store)
	}
	if x.Objectives != nil {
		slo.NewTracker(reg, x.Objectives).Export(reg)
	}
	if x.Recorder {
		p.Recorder.RegisterMetrics(reg)
	}
	h := p.Handle
	h.Name, h.Reg = name, reg
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
