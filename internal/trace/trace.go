// Package trace is the span-level distributed tracing layer of the
// reproduction. One logical file-system operation — already stamped with a
// 64-bit trace ID on every wire message — now also carries an 8-byte parent
// span ID, so the client's operation root, its fan-out branches, every RPC,
// and each server-side handler (one per request, pipelined or not) form a
// parent/child span tree that explains *where* a request's time went
// across the DMS and many FMS.
//
// Completed spans land in a per-process telemetry.Ring. Retention is
// sampled: spans of slow or failed work are always kept; otherwise a trace
// is kept with the configured probability, decided by hashing the trace ID —
// so every process (client and servers) independently reaches the same
// keep/drop decision for a given trace without coordination, and sampled
// trees arrive complete.
//
// A nil *Tracer is valid and free: every method is nil-safe and the span
// constructors return nil without allocating, so tracing disabled
// (Sample <= 0) adds no allocation to the hot path (guarded by
// TestDisabledTracerAllocs).
package trace

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"locofs/internal/telemetry"
)

// DefaultBufSpans is the ring capacity used when Config.BufSpans is zero.
const DefaultBufSpans = 4096

// DefaultSlow is the always-keep latency threshold used when Config.Slow is
// zero: any span at least this slow is retained regardless of the sampling
// probability. Negative Config.Slow disables the slow force-keep.
const DefaultSlow = 10 * time.Millisecond

// Config configures a Tracer.
type Config struct {
	// Sample is the probability (0,1] that a trace's spans are retained in
	// the ring. <= 0 disables tracing entirely (New returns nil).
	Sample float64
	// BufSpans is the ring capacity in spans (default DefaultBufSpans).
	// Older spans are overwritten once the ring wraps.
	BufSpans int
	// Slow is the always-keep threshold: spans at least this slow are
	// retained even when their trace lost the sampling draw. Zero means
	// DefaultSlow; negative disables the slow force-keep.
	Slow time.Duration
}

// Tracer mints spans and retains completed ones in a fixed-size ring.
// A nil Tracer is a valid, fully disabled tracer.
type Tracer struct {
	threshold uint64 // keep trace when mix(traceID) <= threshold
	slowNS    int64  // 0 = slow force-keep disabled
	ring      *telemetry.Ring[*Span]
	spanIDs   atomic.Uint64 // process-local span ID allocator (IDs start at 1)
	dropped   atomic.Uint64 // finished spans not retained (lost the sampling draw)
}

// New returns a Tracer for cfg, or nil when cfg.Sample <= 0 (tracing
// disabled; a nil Tracer is safe to use everywhere).
func New(cfg Config) *Tracer {
	if cfg.Sample <= 0 {
		return nil
	}
	buf := cfg.BufSpans
	if buf <= 0 {
		buf = DefaultBufSpans
	}
	slow := cfg.Slow
	if slow == 0 {
		slow = DefaultSlow
	}
	if slow < 0 {
		slow = 0
	}
	t := &Tracer{
		slowNS: int64(slow),
		ring:   telemetry.NewRing[*Span](buf, nil),
	}
	if cfg.Sample >= 1 {
		t.threshold = math.MaxUint64
	} else {
		t.threshold = uint64(cfg.Sample * float64(math.MaxUint64))
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// mix is splitmix64's finalizer: the trace-ID hash behind the deterministic
// sampling decision shared by every process observing a trace.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// sampled reports whether traceID won the probabilistic retention draw.
func (t *Tracer) sampled(traceID uint64) bool {
	return mix(traceID) <= t.threshold
}

// Span is one timed node of a trace tree. Fields are set between StartSpan
// and Finish by the single goroutine driving the span; after Finish the span
// is immutable and may be read concurrently from the ring.
type Span struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64 // 0 = root
	Name    string // operation (wire.Op name or logical client op)
	Server  string // process/component that recorded the span (e.g. "client", "fms-1")
	Status  string // "" = OK; otherwise the wire status or transport error
	// Sub is the branch index of a client fan-out group; -1 outside one.
	Sub         int
	Start       time.Time
	Dur         time.Duration
	Annotations []string // "k=v" notes: cache=hit, retry=1, addr=...

	tracer *Tracer
}

// StartSpan opens a span on trace traceID under parent (0 = root), recording
// op name and the observing server. Nil-safe: a nil tracer returns a nil
// span, and every Span method accepts a nil receiver, so call sites need no
// enabled-checks (but should guard any allocation done only to build
// arguments).
func (t *Tracer) StartSpan(traceID, parent uint64, name, server string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		TraceID: traceID,
		SpanID:  t.spanIDs.Add(1),
		Parent:  parent,
		Name:    name,
		Server:  server,
		Sub:     -1,
		Start:   time.Now(),
		tracer:  t,
	}
}

// StartChild opens a child span under s with the same trace, tracer and
// server. Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	sp := s.tracer.StartSpan(s.TraceID, s.SpanID, name, s.Server)
	return sp
}

// ID returns the span's ID (0 for nil): the value to stamp as the wire
// header's parent-span field on outgoing requests.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.SpanID
}

// SetStatus records a non-OK outcome ("" means OK). Spans with a status are
// always retained. Nil-safe.
func (s *Span) SetStatus(status string) {
	if s != nil {
		s.Status = status
	}
}

// SetSub records the span's branch index inside a fan-out group. Nil-safe.
func (s *Span) SetSub(i int) {
	if s != nil {
		s.Sub = i
	}
}

// Annotate appends one "k=v" note. Must only be called by the goroutine
// driving the span, before Finish. Nil-safe.
func (s *Span) Annotate(note string) {
	if s != nil {
		s.Annotations = append(s.Annotations, note)
	}
}

// Finish stamps the duration and retains the span in the tracer's ring when
// the trace won the sampling draw, the span failed, or it was slow. Nil-safe;
// must be called exactly once per span.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.Dur = time.Since(s.Start)
	t := s.tracer
	keep := s.Status != "" ||
		(t.slowNS > 0 && int64(s.Dur) >= t.slowNS) ||
		t.sampled(s.TraceID)
	if keep {
		t.ring.Put(s)
	} else {
		t.dropped.Add(1)
	}
}

// Dropped returns how many finished spans were not retained because their
// trace lost the sampling draw (and they were neither slow nor failed) —
// the sampling loss that would otherwise be invisible. Nil-safe.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Evicted returns how many retained spans the ring has overwritten — the
// signal that the span buffer is too small for the retention rate. Nil-safe.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Overwritten()
}

// Recorded returns the number of spans retained so far (including ones the
// ring has since overwritten).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Seq()
}

// Spans returns a point-in-time copy of the ring's retained spans, oldest
// first.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	spans, _, _ := t.ring.Since(0, 0)
	return spans
}

// Trace returns every retained span of one trace, parents before children
// where possible (sorted by start time).
func (t *Tracer) Trace(id uint64) []*Span {
	var out []*Span
	for _, sp := range t.Spans() {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Summary describes one trace present in the ring.
type Summary struct {
	TraceID uint64
	Root    string // root span's name ("" when the root was overwritten)
	Server  string // root span's server
	Spans   int
	Errors  int
	Start   time.Time
	Dur     time.Duration // root span duration, or max span duration without a root
}

// Summaries groups the ring's spans by trace, newest first, returning at
// most limit entries (0 = all).
func (t *Tracer) Summaries(limit int) []Summary {
	byTrace := make(map[uint64]*Summary)
	for _, sp := range t.Spans() {
		s := byTrace[sp.TraceID]
		if s == nil {
			s = &Summary{TraceID: sp.TraceID, Start: sp.Start}
			byTrace[sp.TraceID] = s
		}
		s.Spans++
		if sp.Status != "" {
			s.Errors++
		}
		if sp.Start.Before(s.Start) {
			s.Start = sp.Start
		}
		if sp.Parent == 0 {
			s.Root = sp.Name
			s.Server = sp.Server
			s.Dur = sp.Dur
		} else if s.Root == "" && sp.Dur > s.Dur {
			s.Dur = sp.Dur
		}
	}
	out := make([]Summary, 0, len(byTrace))
	for _, s := range byTrace {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Node is one vertex of an assembled span tree.
type Node struct {
	Span     *Span
	Children []*Node
}

// BuildTree links spans into trees by parent span ID, returning the roots:
// spans whose parent is 0 or absent from the set (e.g. the client-side
// parent of a server span, when the two processes keep separate rings).
// Children are ordered by start time.
func BuildTree(spans []*Span) []*Node {
	nodes := make(map[uint64]*Node, len(spans))
	for _, sp := range spans {
		nodes[sp.SpanID] = &Node{Span: sp}
	}
	var roots []*Node
	for _, sp := range spans {
		n := nodes[sp.SpanID]
		if p, ok := nodes[sp.Parent]; ok && sp.Parent != 0 && sp.Parent != sp.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*Node) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Span.Start.Before(ns[j].Span.Start) })
	}
	for _, n := range nodes {
		byStart(n.Children)
	}
	byStart(roots)
	return roots
}

// Tree assembles one trace's retained spans into trees (see BuildTree).
func (t *Tracer) Tree(id uint64) []*Node {
	return BuildTree(t.Trace(id))
}
