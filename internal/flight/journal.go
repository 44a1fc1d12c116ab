// Package flight is the black-box flight recorder of the reproduction: an
// always-on, lock-cheap journal of typed cluster events (breaker
// transitions, retries, dedup replays, lease recalls, suppression
// overflows, cluster-map installs, migration batches, SLO window
// rollovers, slow requests) plus an anomaly engine that watches the
// journal's event rates and the SLO layer's rotating windows against
// declarative rules, and on trigger captures a one-shot diagnostic bundle —
// recent events, force-kept spans, status snapshot, goroutine and heap
// profiles — so the evidence of a fault survives past the fault itself.
//
// The journal is the signal plane later control loops (the ROADMAP-3
// autoscaler) subscribe to: Subscribe delivers coalesced wake-ups and
// Since(cursor) pages the events a consumer has not seen yet.
//
// Hot-path discipline mirrors internal/trace: a nil *Journal is valid and
// every method on it is a no-op, so emitters need no enabled-checks, and
// Append is O(1) with zero allocations (a single short critical section
// copying one fixed-size Event value into a preallocated ring slot — see
// BenchmarkJournalAppend and TestAppendZeroAlloc).
package flight

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/telemetry"
)

// DefaultBufEvents is the journal ring capacity used when NewJournal is
// given a non-positive capacity.
const DefaultBufEvents = 4096

// Kind types a journal event.
type Kind uint8

// Event kinds. The zero Kind is reserved so an all-zero Event slot is
// recognizably empty.
const (
	KindBreaker       Kind = iota + 1 // client circuit-breaker state transition
	KindRetry                         // client retry of an idempotent/deduped call
	KindDedupReplay                   // a service (FMS window, DMS op log) answered a duplicate from its first execution's record
	KindLeaseRecall                   // dms published a lease recall
	KindLeaseOverflow                 // dms lease table entered publish-everything overflow
	KindEpoch                         // cluster-map version installed
	KindMigration                     // one migration batch exported or installed
	KindWindowRoll                    // a telemetry rotating window closed (SLO rollover)
	KindSlowRequest                   // server handler exceeded the slow threshold
	KindAnomaly                       // anomaly engine rule fired
	KindBundle                        // diagnostic bundle captured
	KindPartition                     // sharded-DMS partition event (failover, follower exclusion, 2PC recovery)
	numKinds
)

var kindNames = [numKinds]string{
	KindBreaker:       "breaker",
	KindRetry:         "retry",
	KindDedupReplay:   "dedup_replay",
	KindLeaseRecall:   "lease_recall",
	KindLeaseOverflow: "lease_overflow",
	KindEpoch:         "epoch",
	KindMigration:     "migration",
	KindWindowRoll:    "window_roll",
	KindSlowRequest:   "slow_request",
	KindAnomaly:       "anomaly",
	KindBundle:        "bundle",
	KindPartition:     "partition",
}

// String returns the kind's stable wire name ("" for the zero Kind).
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one journal entry. It is a fixed-size value: Append copies it
// into a preallocated ring slot, so emitting allocates nothing as long as
// the strings the caller passes already exist (op names, addresses, static
// details — never fmt.Sprintf on a hot path).
type Event struct {
	// Seq is the journal-assigned sequence number, 1-based and dense:
	// consecutive events differ by exactly 1, which is what makes
	// since-cursor paging and overwrite detection exact.
	Seq uint64
	// TimeNS is the journal clock's reading at append, unix nanoseconds
	// (monotonic per journal — stamped under the same lock that orders Seq).
	TimeNS int64
	Kind   Kind
	// Source names the emitting component ("dms", "fms-1", "client", ...).
	Source string
	// Op is the wire op or logical operation class involved, when any.
	Op string
	// Trace is the 64-bit trace id of the request involved, 0 when none.
	Trace uint64
	// Value is the kind-specific magnitude: map version for KindEpoch,
	// batch size for KindMigration, service nanoseconds for
	// KindSlowRequest, recall seq for KindLeaseRecall, attempt number for
	// KindRetry.
	Value int64
	// Detail is a short kind-specific note (breaker state, rule name, ...).
	Detail string
}

// jsonEvent is the wire form of an Event: the kind as its stable name and
// the trace id as 0x-hex (uint64 exceeds JavaScript's safe integer range,
// and hex matches the slow-request log and /debug/traces).
type jsonEvent struct {
	Seq    uint64 `json:"seq"`
	TimeNS int64  `json:"time_ns"`
	Kind   string `json:"kind"`
	Source string `json:"source,omitempty"`
	Op     string `json:"op,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Value  int64  `json:"value,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// MarshalJSON renders the event for the admin surface.
func (e Event) MarshalJSON() ([]byte, error) {
	je := jsonEvent{
		Seq:    e.Seq,
		TimeNS: e.TimeNS,
		Kind:   e.Kind.String(),
		Source: e.Source,
		Op:     e.Op,
		Value:  e.Value,
		Detail: e.Detail,
	}
	if e.Trace != 0 {
		je.Trace = fmt.Sprintf("%#x", e.Trace)
	}
	return json.Marshal(je)
}

// UnmarshalJSON parses the wire form back, so spooled bundles and
// /debug/events pages round-trip into typed events for offline tooling.
// Unknown kind names map to the zero Kind rather than erroring, keeping old
// readers forward-compatible with new kinds.
func (e *Event) UnmarshalJSON(data []byte) error {
	var je jsonEvent
	if err := json.Unmarshal(data, &je); err != nil {
		return err
	}
	*e = Event{
		Seq:    je.Seq,
		TimeNS: je.TimeNS,
		Source: je.Source,
		Op:     je.Op,
		Value:  je.Value,
		Detail: je.Detail,
	}
	for k := Kind(1); k < numKinds; k++ {
		if kindNames[k] == je.Kind {
			e.Kind = k
			break
		}
	}
	if je.Trace != "" {
		t, err := strconv.ParseUint(strings.TrimPrefix(je.Trace, "0x"), 16, 64)
		if err != nil {
			return fmt.Errorf("flight: bad trace id %q: %w", je.Trace, err)
		}
		e.Trace = t
	}
	return nil
}

// Journal is a bounded ring of events. Append is a single short critical
// section (mutex, not seqlock, so readers under the race detector are
// exact); Seq is lock-free for cheap "anything new?" polls.
//
// A nil *Journal is valid: every method is a no-op returning zeros.
type Journal struct {
	mu          sync.Mutex
	ring        []Event
	seq         uint64           // last assigned sequence number
	overwritten uint64           // events lost to ring wrap-around
	byKind      [numKinds]uint64 // per-kind totals (lifetime)
	subs        []chan struct{}  // coalesced new-event wake-ups
	nowNS       func() int64     // injectable clock (tests)
	pub         atomic.Uint64    // published seq, for lock-free Seq()
}

// NewJournal returns a journal retaining the most recent capacity events
// (<= 0 means DefaultBufEvents).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultBufEvents
	}
	return &Journal{
		ring:  make([]Event, capacity),
		nowNS: func() int64 { return time.Now().UnixNano() },
	}
}

// SetNow injects the clock stamping Event.TimeNS (tests). Nil-safe.
func (j *Journal) SetNow(now func() int64) {
	if j == nil || now == nil {
		return
	}
	j.mu.Lock()
	j.nowNS = now
	j.mu.Unlock()
}

// Append stamps Seq and TimeNS (unless the caller pre-set TimeNS) and
// stores ev in the ring, overwriting the oldest retained event once full.
// Returns the assigned sequence number. O(1), zero allocations, nil-safe.
func (j *Journal) Append(ev Event) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	if ev.TimeNS == 0 {
		ev.TimeNS = j.nowNS()
	}
	if j.seq > uint64(len(j.ring)) {
		j.overwritten++
	}
	j.ring[(j.seq-1)%uint64(len(j.ring))] = ev
	if ev.Kind < numKinds {
		j.byKind[ev.Kind]++
	}
	j.pub.Store(j.seq)
	for _, ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a pending wake-up
		}
	}
	j.mu.Unlock()
	return ev.Seq
}

// Emit is Append with the fields spelled out — the form the emitters use.
func (j *Journal) Emit(kind Kind, source, op string, trace uint64, value int64, detail string) uint64 {
	return j.Append(Event{Kind: kind, Source: source, Op: op, Trace: trace, Value: value, Detail: detail})
}

// Seq returns the sequence number of the newest event (0 = empty). Lock-free
// and nil-safe — the cursor a tailing consumer starts from.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	return j.pub.Load()
}

// Cap returns the ring capacity (0 for nil).
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return len(j.ring)
}

// Overwritten returns how many events the ring has discarded to make room —
// the signal the buffer is too small for the event rate. Nil-safe.
func (j *Journal) Overwritten() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.overwritten
}

// KindCounts returns lifetime per-kind event totals keyed by Kind.String().
// Nil-safe (nil map for a nil journal).
func (j *Journal) KindCounts() map[string]uint64 {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]uint64)
	for k := Kind(1); k < numKinds; k++ {
		if j.byKind[k] > 0 {
			out[k.String()] = j.byKind[k]
		}
	}
	return out
}

// Since returns up to max events with sequence numbers strictly greater
// than cursor, oldest first, plus the cursor to pass next time and whether
// the requested range was truncated (events between cursor and the oldest
// retained one were overwritten, or cursor is ahead of the journal — e.g.
// after a restart). max <= 0 means the full ring. Nil-safe.
func (j *Journal) Since(cursor uint64, max int) (events []Event, next uint64, reset bool) {
	if j == nil {
		return nil, cursor, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if max <= 0 || max > len(j.ring) {
		max = len(j.ring)
	}
	oldest := uint64(1)
	if j.seq > uint64(len(j.ring)) {
		oldest = j.seq - uint64(len(j.ring)) + 1
	}
	start := cursor + 1
	if cursor > j.seq {
		// The cursor references a future (or pre-restart) journal: resync.
		reset = true
		start = oldest
	} else if start < oldest {
		reset = true
		start = oldest
	}
	for s := start; s <= j.seq && len(events) < max; s++ {
		events = append(events, j.ring[(s-1)%uint64(len(j.ring))])
	}
	next = cursor
	if len(events) > 0 {
		next = events[len(events)-1].Seq
	} else if cursor > j.seq {
		next = j.seq
	}
	return events, next, reset
}

// Recent returns the newest max events, oldest first (max <= 0 = all
// retained). Nil-safe.
func (j *Journal) Recent(max int) []Event {
	if j == nil {
		return nil
	}
	cursor := uint64(0)
	if max > 0 {
		if seq := j.Seq(); seq > uint64(max) {
			cursor = seq - uint64(max)
		}
	}
	evs, _, _ := j.Since(cursor, max)
	return evs
}

// CountKindSince returns how many retained events of the given kind carry
// TimeNS >= sinceNS — the windowed event rate the anomaly rules evaluate.
// Cold path: scans the ring under the lock. Nil-safe.
func (j *Journal) CountKindSince(kind Kind, sinceNS int64) int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	retained := j.seq
	if retained > uint64(len(j.ring)) {
		retained = uint64(len(j.ring))
	}
	for i := uint64(0); i < retained; i++ {
		ev := &j.ring[(j.seq-1-i)%uint64(len(j.ring))]
		if ev.TimeNS < sinceNS {
			break // ring is time-ordered newest-to-oldest from here back
		}
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// Subscribe registers a coalesced wake-up channel: after any Append the
// channel holds (at most) one token. Consumers drain it, then page with
// Since. Nil-safe (returns nil for a nil journal).
func (j *Journal) Subscribe() <-chan struct{} {
	if j == nil {
		return nil
	}
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return ch
}

// Unsubscribe removes a channel returned by Subscribe. Nil-safe.
func (j *Journal) Unsubscribe(ch <-chan struct{}) {
	if j == nil {
		return
	}
	j.mu.Lock()
	for i, s := range j.subs {
		if s == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
	j.mu.Unlock()
}

// Flight-recorder metric names.
const (
	MetricEvents      = "locofs_flight_events_total"
	MetricOverwritten = "locofs_flight_overwritten_total"
	MetricAnomalies   = "locofs_flight_anomalies_total"
	MetricBundles     = "locofs_flight_bundles_total"
)

// RegisterMetrics exposes the journal's totals on reg:
//
//	locofs_flight_events_total{kind=...}
//	locofs_flight_overwritten_total
//
// Nil-safe (no-op for a nil journal or registry).
func (j *Journal) RegisterMetrics(reg *telemetry.Registry) {
	if j == nil || reg == nil {
		return
	}
	for k := Kind(1); k < numKinds; k++ {
		k := k
		reg.GaugeFunc(MetricEvents, func() float64 {
			j.mu.Lock()
			defer j.mu.Unlock()
			return float64(j.byKind[k])
		}, telemetry.L("kind", k.String()))
	}
	reg.GaugeFunc(MetricOverwritten, func() float64 { return float64(j.Overwritten()) })
}
