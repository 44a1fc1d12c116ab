package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"locofs/internal/telemetry"
)

// journalCap is the journal's capacity in events.
const journalCap = 4096

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
	KindAnomaly                       // anomaly rule fired
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
		je.Trace = hexID(e.Trace)
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
			return fmt.Errorf("obs: bad trace id %q: %w", je.Trace, err)
		}
		e.Trace = t
	}
	return nil
}

// Journal is a process's always-on record of typed cluster events: a
// telemetry.Ring of Event values plus lifetime per-kind totals. Append is
// O(1) with zero allocations (TestAppendZeroAlloc). A nil *Journal is valid:
// every method is a no-op returning zeros, so emitters need no
// enabled-checks.
type Journal struct {
	ring   *telemetry.Ring[Event]
	byKind [numKinds]atomic.Uint64
}

// newJournal returns an empty journal whose events are stamped by now.
func newJournal(now func() time.Time) *Journal {
	j := &Journal{}
	j.ring = telemetry.NewRing(journalCap, func(ev *Event, seq uint64) {
		ev.Seq = seq
		if ev.TimeNS == 0 {
			ev.TimeNS = now().UnixNano()
		}
		if ev.Kind < numKinds {
			j.byKind[ev.Kind].Add(1)
		}
	})
	return j
}

// Append stamps Seq and TimeNS (unless the caller pre-set TimeNS) and
// stores ev, overwriting the oldest retained event once the journal is full.
// Returns the assigned sequence number.
func (j *Journal) Append(ev Event) uint64 {
	if j == nil {
		return 0
	}
	return j.ring.Put(ev)
}

// Emit is Append with the fields spelled out — the form the emitters use.
func (j *Journal) Emit(kind Kind, source, op string, trace uint64, value int64, detail string) uint64 {
	return j.Append(Event{Kind: kind, Source: source, Op: op, Trace: trace, Value: value, Detail: detail})
}

// Seq returns the sequence number of the newest event (0 = empty), without
// taking the lock — the cursor a tailing consumer starts from.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	return j.ring.Seq()
}

// Overwritten returns how many events the journal has discarded to make
// room — the signal the buffer is too small for the event rate.
func (j *Journal) Overwritten() uint64 {
	if j == nil {
		return 0
	}
	return j.ring.Overwritten()
}

// KindCounts returns lifetime per-kind event totals keyed by Kind.String()
// (nil for a nil journal).
func (j *Journal) KindCounts() map[string]uint64 {
	if j == nil {
		return nil
	}
	out := make(map[string]uint64)
	for k := Kind(1); k < numKinds; k++ {
		if n := j.byKind[k].Load(); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// Since returns up to max events with sequence numbers above cursor, oldest
// first, plus the cursor to pass next time and whether the range was
// truncated (events between cursor and the oldest retained one were
// overwritten, or cursor is ahead of the journal — e.g. after a restart).
// max <= 0 means every retained event.
func (j *Journal) Since(cursor uint64, max int) (events []Event, next uint64, reset bool) {
	if j == nil {
		return nil, cursor, false
	}
	return j.ring.Since(cursor, max)
}

// CountKindSince returns how many retained events of the given kind carry
// TimeNS >= sinceNS — the windowed event rate the anomaly rules evaluate.
func (j *Journal) CountKindSince(kind Kind, sinceNS int64) int {
	if j == nil {
		return 0
	}
	n := 0
	j.ring.Scan(func(ev *Event) bool {
		if ev.TimeNS < sinceNS {
			return false // time-ordered newest to oldest from here back
		}
		if ev.Kind == kind {
			n++
		}
		return true
	})
	return n
}

// Flight-recorder metric names.
const (
	MetricEvents      = "locofs_flight_events_total"
	MetricOverwritten = "locofs_flight_overwritten_total"
	MetricAnomalies   = "locofs_flight_anomalies_total"
	MetricBundles     = "locofs_flight_bundles_total"
)

// registerMetrics exports the journal's totals on reg:
//
//	locofs_flight_events_total{kind=...}
//	locofs_flight_overwritten_total
func (j *Journal) registerMetrics(reg *telemetry.Registry) {
	for k := Kind(1); k < numKinds; k++ {
		reg.GaugeFunc(MetricEvents, func() float64 { return float64(j.byKind[k].Load()) }, telemetry.L("kind", k.String()))
	}
	reg.GaugeFunc(MetricOverwritten, func() float64 { return float64(j.Overwritten()) })
}

// windowRollHook adapts the journal to telemetry.Registry.SetRotateHook: it
// turns window rotations into KindWindowRoll events, at most one per gap, so
// a registry rotating a dozen per-op histograms at one boundary yields one
// rollover event, not a dozen.
func windowRollHook(j *Journal, source string, gap time.Duration) func(name string, n int) {
	var last atomic.Int64
	return func(name string, n int) {
		now := time.Now().UnixNano()
		for {
			prev := last.Load()
			if now-prev < int64(gap) {
				return
			}
			if last.CompareAndSwap(prev, now) {
				j.Emit(KindWindowRoll, source, name, 0, int64(n), "")
				return
			}
		}
	}
}
