package telemetry

import (
	"sync"
	"sync/atomic"
)

// Ring is a bounded buffer of records that overwrites its oldest record once
// full. Records get dense 1-based sequence numbers, so a reader pages by
// cursor (Since) and knows exactly what the ring lapped. It is the one ring
// behind the flight journal and the span tracer. Put is one short critical
// section that copies a value into a preallocated slot; the newest sequence
// number is readable without the lock.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	stamp func(v *T, seq uint64)
	seq   atomic.Uint64 // last assigned sequence number, stored under mu
}

// NewRing returns a ring that retains the newest capacity records. stamp
// (nil = none) completes each record in its slot under the ring lock, given
// its sequence number, so whatever it stamps (a clock reading) is ordered
// the way the sequence is.
func NewRing[T any](capacity int, stamp func(v *T, seq uint64)) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity), stamp: stamp}
}

// Put stores v and returns its sequence number.
func (r *Ring[T]) Put(v T) uint64 {
	r.mu.Lock()
	s := r.seq.Load() + 1
	slot := &r.buf[(s-1)%uint64(len(r.buf))]
	*slot = v
	if r.stamp != nil {
		r.stamp(slot, s)
	}
	r.seq.Store(s)
	r.mu.Unlock()
	return s
}

// Seq returns the sequence number of the newest record (0 = empty).
func (r *Ring[T]) Seq() uint64 { return r.seq.Load() }

// Overwritten returns how many records the ring has discarded to make room.
func (r *Ring[T]) Overwritten() uint64 {
	if s, n := r.seq.Load(), uint64(len(r.buf)); s > n {
		return s - n
	}
	return 0
}

// Since returns up to max records with sequence numbers above cursor, oldest
// first, plus the cursor to pass next time and whether records were lost
// between cursor and the oldest one retained (the ring lapped the reader, or
// the cursor is ahead of the ring, as after a restart). max <= 0 means every
// retained record.
func (r *Ring[T]) Since(cursor uint64, max int) (out []T, next uint64, reset bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq, n := r.seq.Load(), uint64(len(r.buf))
	if max <= 0 || max > len(r.buf) {
		max = len(r.buf)
	}
	oldest := uint64(1)
	if seq > n {
		oldest = seq - n + 1
	}
	start := cursor + 1
	if cursor > seq || start < oldest {
		reset, start = true, oldest
	}
	for s := start; s <= seq && len(out) < max; s++ {
		out = append(out, r.buf[(s-1)%n])
	}
	switch {
	case len(out) > 0:
		next = start + uint64(len(out)) - 1
	case cursor > seq:
		next = seq
	default:
		next = cursor
	}
	return out, next, reset
}

// Scan calls fn on the retained records, newest first, until fn returns
// false. fn runs under the ring lock.
func (r *Ring[T]) Scan(fn func(v *T) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq, n := r.seq.Load(), uint64(len(r.buf))
	for i := uint64(0); i < seq && i < n; i++ {
		if !fn(&r.buf[(seq-1-i)%n]) {
			return
		}
	}
}
