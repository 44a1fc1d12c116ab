package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its middle; 0 for an empty sample,
// so an absent op class reads as 0 in the per-layer table.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile picks the highest of p99.9/p99/p95/p90 that still has at
// least ten samples beyond it, so a reported tail is never one outlier.
// It returns 0.5 when the sample supports no tail at all.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(n)*(1-q) >= 10-1e-9 { // 100*(1-0.9) is 9.999... in floating point
			return q
		}
	}
	return 0.5
}

// latencySummary is a latency sample reduced to what the ledger prints.
type latencySummary struct {
	N     int     // sample count
	P50   float64 // µs
	P99   float64 // µs; the 0.99 quantile, 0 when N*(0.01) < 10
	TailQ float64 // the quantile tailQuantile chose
	Tail  float64 // µs at TailQ
}

// summarize reduces per-op latencies in nanoseconds to microsecond quantiles.
func summarize(ns []int64) latencySummary {
	if len(ns) == 0 {
		return latencySummary{}
	}
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	sort.Float64s(us)
	s := latencySummary{N: len(us), P50: quantile(us, 0.5), TailQ: tailQuantile(len(us))}
	s.Tail = quantile(us, s.TailQ)
	if len(us) >= 1000 {
		s.P99 = quantile(us, 0.99)
	}
	return s
}
