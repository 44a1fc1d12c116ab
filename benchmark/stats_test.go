package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample must be NaN")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	ns := make([]int64, 2000)
	for i := range ns {
		ns[i] = int64(i+1) * 1000 // 1..2000 us
	}
	s := summarize(ns)
	if s.N != 2000 || math.Abs(s.P50-1000.5) > 1e-9 {
		t.Errorf("N=%d P50=%v, want 2000 and 1000.5", s.N, s.P50)
	}
	if s.TailQ != 0.99 || math.Abs(s.P99-1980.01) > 1e-6 || s.Tail != s.P99 {
		t.Errorf("TailQ=%v P99=%v Tail=%v", s.TailQ, s.P99, s.Tail)
	}
	if small := summarize(ns[:500]); small.P99 != 0 || small.TailQ != 0.95 {
		t.Errorf("500 samples support p95 only, got TailQ=%v P99=%v", small.TailQ, small.P99)
	}
	if z := summarize(nil); z.N != 0 || z.P50 != 0 {
		t.Errorf("empty sample: %+v", z)
	}
}
