package trace

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestTopKRanksSkewFirst(t *testing.T) {
	// A Zipf-ish skew over far more distinct keys than the sketch monitors:
	// the heavy hitter must rank first despite constant churn.
	tk := NewTopK(16)
	for i := 0; i < 2000; i++ {
		tk.Touch("/hot")
		tk.Touch(fmt.Sprintf("/cold/%d", i))
		if i%3 == 0 {
			tk.Touch("/warm")
		}
	}
	top := tk.Top(2)
	if len(top) < 2 {
		t.Fatalf("Top(2) = %v", top)
	}
	if top[0].Key != "/hot" {
		t.Fatalf("top key = %q, want /hot (top=%v)", top[0].Key, top)
	}
	if top[1].Key != "/warm" {
		t.Errorf("second key = %q, want /warm", top[1].Key)
	}
	// Space-saving overestimates by at most Err; the true count is 2000.
	if got := top[0].Count - top[0].Err; got > 2000 {
		t.Errorf("lower bound %d exceeds true count 2000", got)
	}
	if top[0].Count < 2000 {
		t.Errorf("count %d underestimates true count 2000", top[0].Count)
	}
	if tk.Total() != uint64(2000+2000+667) {
		t.Errorf("Total = %d, want 4667", tk.Total())
	}
}

func TestTopKCapacityAndReset(t *testing.T) {
	tk := NewTopK(4)
	for i := 0; i < 100; i++ {
		tk.Touch(fmt.Sprintf("k%d", i))
	}
	if got := len(tk.Top(0)); got != 4 {
		t.Errorf("monitored %d keys, want 4", got)
	}
	tk.Reset()
	if len(tk.Top(0)) != 0 || tk.Total() != 0 {
		t.Error("Reset did not clear the sketch")
	}
	if NewTopK(0).cap != DefaultTopKCapacity {
		t.Error("NewTopK(0) did not apply the default capacity")
	}
}

func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tk.Touch("/shared")
				tk.Touch(fmt.Sprintf("/g%d/%d", g, i%50))
			}
		}(g)
	}
	wg.Wait()
	if top := tk.Top(1); top[0].Key != "/shared" {
		t.Errorf("top = %v, want /shared", top)
	}
	if tk.Total() != 16000 {
		t.Errorf("Total = %d, want 16000", tk.Total())
	}
}

// checkTopK holds tk against the brute-force frequencies of the stream it
// was fed: every key above total/cap is monitored, every monitored count
// brackets the true one (Count-Err <= true <= Count), Total is exact, Top
// is ranked count-descending with ties by key, and the heap is a heap.
func checkTopK(t *testing.T, name string, tk *TopK, truth map[string]uint64, total uint64) {
	t.Helper()
	if got := tk.Total(); got != total {
		t.Errorf("%s: Total = %d, want %d", name, got, total)
	}
	top := tk.Top(0)
	if len(top) > tk.cap {
		t.Errorf("%s: %d keys monitored, capacity %d", name, len(top), tk.cap)
	}
	seen := make(map[string]bool, len(top))
	for i, hk := range top {
		seen[hk.Key] = true
		if tr := truth[hk.Key]; hk.Count < tr || hk.Count-hk.Err > tr {
			t.Errorf("%s: %q count %d err %d does not bracket true %d", name, hk.Key, hk.Count, hk.Err, tr)
		}
		if i > 0 {
			p := top[i-1]
			if p.Count < hk.Count || (p.Count == hk.Count && p.Key >= hk.Key) {
				t.Errorf("%s: Top out of order at %d: %+v before %+v", name, i, p, hk)
			}
		}
	}
	for k, tr := range truth {
		if tr > total/uint64(tk.cap) && !seen[k] {
			t.Errorf("%s: %q with true count %d > %d/%d is not monitored", name, k, tr, total, tk.cap)
		}
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	for i, e := range tk.h {
		if e.idx != i || tk.m[e.key] != e {
			t.Fatalf("%s: heap slot %d holds %+v, out of step with its index or the map", name, i, e)
		}
		if i > 0 && tk.h[(i-1)/2].count > e.count {
			t.Fatalf("%s: heap order broken at slot %d", name, i)
		}
	}
}

// TestTopKMatchesReference drives seeded streams of many more keys than the
// capacity — uniform, Zipf, and an adversarial round-robin that evicts on
// every touch — through the sketch, checking the space-saving guarantees
// against exact counts as it goes and after Reset.
func TestTopKMatchesReference(t *testing.T) {
	const capacity, keys, n = 16, 200, 20000
	streams := map[string]func(r *rand.Rand, i int) int{
		"uniform":     func(r *rand.Rand, _ int) int { return r.Intn(keys) },
		"round-robin": func(_ *rand.Rand, i int) int { return i % (capacity + 1) },
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(3)), 1.2, 1, keys-1)
	streams["zipf"] = func(*rand.Rand, int) int { return int(zipf.Uint64()) }
	for name, next := range streams {
		r := rand.New(rand.NewSource(1))
		tk := NewTopK(capacity)
		truth := make(map[string]uint64)
		for i := 1; i <= n; i++ {
			k := fmt.Sprintf("/k%d", next(r, i))
			tk.Touch(k)
			truth[k]++
			if i%2500 == 0 {
				checkTopK(t, name, tk, truth, uint64(i))
			}
		}
		tk.Reset()
		if len(tk.h) != 0 || len(tk.m) != 0 || tk.Total() != 0 {
			t.Errorf("%s: Reset left %d heap entries, %d map entries, total %d", name, len(tk.h), len(tk.m), tk.Total())
		}
		tk.Touch("/after")
		checkTopK(t, name+" after Reset", tk, map[string]uint64{"/after": 1}, 1)
	}
}

// BenchmarkTopKTouch: a full sketch touched with keys it does not monitor
// (every touch evicts) and with one it does (every touch hits). Neither
// allocates.
func BenchmarkTopKTouch(b *testing.B) {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("/bench/dir/%d", i)
	}
	b.Run("unique", func(b *testing.B) {
		tk := NewTopK(0)
		for _, k := range keys {
			tk.Touch(k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Touch(keys[i%len(keys)])
		}
	})
	b.Run("hit", func(b *testing.B) {
		tk := NewTopK(0)
		for _, k := range keys[:DefaultTopKCapacity] {
			tk.Touch(k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Touch(keys[i%DefaultTopKCapacity])
		}
	})
}
