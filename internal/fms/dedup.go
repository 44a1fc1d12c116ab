package fms

import (
	"sync"
	"sync/atomic"

	"locofs/internal/wire"
)

// DedupWindow is how many recently executed request ids an FMS remembers
// for at-most-once replay. A retried mutation whose first delivery executed
// is answered from this window instead of executing twice; a duplicate
// arriving after its entry was evicted re-executes (and then typically
// observes its own first execution as EEXIST/ENOENT). The window only needs
// to outlive one client's retry horizon, not the full request history.
const DedupWindow = 1024

// MetricDedupInflightSkips counts window evictions skipped because the
// entry's first delivery was still executing — evicting it would have let a
// retry re-execute the mutation.
const MetricDedupInflightSkips = "locofs_rpc_dedup_inflight_skips_total"

// dedupEntry records one request's outcome. done is closed once the first
// execution completes, releasing any duplicate deliveries waiting to replay
// it.
type dedupEntry struct {
	done      chan struct{}
	completed atomic.Bool // set just before done is closed; eviction guard
	status    wire.Status
	body      []byte
}

// complete records the first execution's outcome and releases duplicates.
func (e *dedupEntry) complete(status wire.Status, body []byte) {
	e.status, e.body = status, body
	e.completed.Store(true)
	close(e.done)
}

// dedupWindow is a bounded FIFO map of request id → outcome. The zero value
// is ready to use.
type dedupWindow struct {
	mu   sync.Mutex
	m    map[uint64]*dedupEntry
	fifo []uint64
	// inflightSkips counts entries that reached the head of the eviction
	// queue while their request was still executing and were spared.
	inflightSkips atomic.Uint64
}

// begin registers req. When req is new it returns (entry, false) and the
// caller must execute the request and complete the entry; when req was
// already seen it returns (entry, true) and the caller must wait on
// entry.done and replay the recorded outcome.
func (w *dedupWindow) begin(req uint64) (*dedupEntry, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.m == nil {
		w.m = make(map[uint64]*dedupEntry)
	}
	if e, ok := w.m[req]; ok {
		return e, true
	}
	e := &dedupEntry{done: make(chan struct{})}
	w.m[req] = e
	w.fifo = append(w.fifo, req)
	// Evict from the head, O(1) a step. A completed head goes; an in-flight
	// head goes back to the tail instead — its first delivery is still
	// executing, so evicting it would let a retry slip past the window and
	// run the mutation twice. If every entry is in flight (a pathological
	// burst) the window overflows rather than give up the guarantee.
	for tries := len(w.fifo); len(w.fifo) > DedupWindow && tries > 0; tries-- {
		id := w.fifo[0]
		w.fifo = w.fifo[1:]
		if !w.m[id].completed.Load() {
			w.inflightSkips.Add(1)
			w.fifo = append(w.fifo, id)
			continue
		}
		delete(w.m, id)
	}
	return e, false
}

// atMostOnce runs one of the FMS's non-idempotent mutations under its
// request id. The first delivery executes run and records the outcome; a
// duplicate waits for that execution if it is still running and answers
// from the record (counted, and journaled as a replay under the duplicate's
// trace id). Callers decode the body and apply the ownership guard first: a
// refusal that executed nothing is never recorded, so its retry executes.
// req == 0 (the sender asked for no deduplication) just runs.
func (s *Server) atMostOnce(op wire.Op, req, trace uint64, run func() (wire.Status, []byte)) (wire.Status, []byte) {
	if req == 0 {
		return run()
	}
	e, dup := s.window.begin(req)
	if dup {
		<-e.done
		s.obs.Replayed(op.String(), trace)
		return e.status, e.body
	}
	st, body := run()
	e.complete(st, body)
	return st, body
}
