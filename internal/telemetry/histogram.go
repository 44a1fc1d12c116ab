// Package telemetry is the observability layer of the reproduction: a
// lock-cheap latency histogram, a counter/gauge/histogram registry with
// stable point-in-time snapshots rendered as Prometheus text (served by
// internal/obs), and the bounded sequenced Ring behind the flight journal
// and the span tracer. Every server and client records per-op
// latency distributions here, which is what lets the experiments attribute
// a regression to the DMS, an FMS, the KV store, or the transport.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of log-spaced histogram buckets. Bucket i holds
// durations d (in nanoseconds) with bits.Len64(d) == i, i.e. the half-open
// range [2^(i-1), 2^i); bucket 0 holds zero. 64 buckets cover every
// possible time.Duration.
const NumBuckets = 64

// Histogram is a log-bucketed latency histogram safe for concurrent use.
// Recording is two atomic adds plus a CAS loop for the max — cheap enough
// to sit on every RPC hot path.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	maxNS   atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf returns the bucket index for a duration.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// BucketUpper returns the exclusive upper bound of bucket i.
func BucketUpper(i int) time.Duration {
	if i <= 0 {
		return 1 // bucket 0 is [0,1) ns
	}
	if i >= 63 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1) << uint(i))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(uint64(d))
	for {
		cur := h.maxNS.Load()
		if uint64(d) <= cur || h.maxNS.CompareAndSwap(cur, uint64(d)) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot returns a point-in-time copy of the distribution. Buckets are
// read without a global lock, so under concurrent recording the copy may be
// off by in-flight observations — each bucket is individually consistent,
// which is all quantile estimation needs.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sumNS.Load())
	s.Max = time.Duration(h.maxNS.Load())
	var n uint64
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		n += s.Buckets[i]
	}
	// Under concurrent recording the bucket sum may lag or lead the count;
	// quantiles are computed against the buckets actually seen.
	s.Count = n
	return s
}

// HistSnapshot is an immutable copy of a Histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	Buckets [NumBuckets]uint64
}

// Mean returns the average observation (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// CountAtMost estimates how many observations were <= d: full buckets below
// d's bucket plus a linear fraction of the containing bucket. This is the
// good-event counter behind SLO tracking (events within the latency
// objective), with the same log-bucket resolution as Quantile.
func (s HistSnapshot) CountAtMost(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	b := bucketOf(d)
	var n uint64
	for i := 0; i < b && i < NumBuckets; i++ {
		n += s.Buckets[i]
	}
	if b < NumBuckets && s.Buckets[b] > 0 {
		lo := float64(BucketUpper(b)) / 2
		if b == 0 {
			lo = 0
		}
		hi := float64(BucketUpper(b))
		frac := (float64(d) - lo) / (hi - lo)
		if frac > 1 {
			frac = 1
		}
		if frac > 0 {
			n += uint64(frac * float64(s.Buckets[b]))
		}
	}
	if n > s.Count {
		n = s.Count
	}
	return n
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the containing log bucket, clamped to the observed max.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := float64(BucketUpper(i)) / 2
			if i == 0 {
				lo = 0
			}
			hi := float64(BucketUpper(i))
			frac := (rank - float64(cum)) / float64(c)
			est := time.Duration(lo + (hi-lo)*frac)
			if est > s.Max && s.Max > 0 {
				est = s.Max
			}
			return est
		}
		cum += c
	}
	return s.Max
}
