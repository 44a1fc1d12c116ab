package trace

import (
	"sort"
	"sync"
)

// DefaultTopKCapacity is the monitored-key capacity used by NewTopK(0):
// large enough to rank a realistically skewed workload's head, small enough
// that one Touch costs a few heap levels.
const DefaultTopKCapacity = 128

// HotKey is one ranked entry of a TopK sketch. Count may overestimate the
// key's true frequency by at most Err (the space-saving guarantee).
type HotKey struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
}

// TopK is a space-saving heavy-hitter sketch (Metwally et al.): it monitors
// at most cap keys; a new key arriving at capacity replaces the current
// minimum, inheriting its count as the overestimation error. Any key whose
// true frequency exceeds total/cap is guaranteed to be monitored, which is
// exactly the hot-directory / hot-file-key skew the introspection plane
// needs to surface. Safe for concurrent use; Touch is one short mutex hold,
// O(log cap): the monitored entries sit in a min-heap on count, so the
// eviction victim is always h[0] and a hit re-sinks one entry.
type TopK struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*hotEntry
	h     []*hotEntry // min-heap on count; h[e.idx] == e
	total uint64
}

type hotEntry struct {
	key   string
	count uint64
	err   uint64
	idx   int
}

// NewTopK returns a sketch monitoring at most capacity keys
// (DefaultTopKCapacity when <= 0).
func NewTopK(capacity int) *TopK {
	if capacity <= 0 {
		capacity = DefaultTopKCapacity
	}
	return &TopK{
		cap: capacity,
		m:   make(map[string]*hotEntry, capacity),
		h:   make([]*hotEntry, 0, capacity),
	}
}

// Touch counts one occurrence of key.
func (t *TopK) Touch(key string) {
	t.mu.Lock()
	t.total++
	e := t.m[key]
	switch {
	case e != nil:
		e.count++
	case len(t.h) < t.cap:
		e = &hotEntry{key: key, count: 1, idx: len(t.h)}
		t.m[key] = e
		t.h = append(t.h, e)
		t.up(e.idx) // a count of 1 is a minimum: it rises to the root
	default:
		// Reuse the evicted minimum: the newcomer inherits its count as its
		// upper bound, with the previous count as the error margin.
		e = t.h[0]
		delete(t.m, e.key)
		e.key, e.err = key, e.count
		e.count++
		t.m[key] = e
	}
	t.down(e.idx)
	t.mu.Unlock()
}

// up moves h[i] toward the root while it is smaller than its parent.
func (t *TopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.h[p].count <= t.h[i].count {
			return
		}
		t.swap(i, p)
		i = p
	}
}

// down moves h[i] toward the leaves while a child is smaller. Counts only
// grow, so this is the only repair a hit or an eviction needs.
func (t *TopK) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(t.h) {
			return
		}
		if r := c + 1; r < len(t.h) && t.h[r].count < t.h[c].count {
			c = r
		}
		if t.h[i].count <= t.h[c].count {
			return
		}
		t.swap(i, c)
		i = c
	}
}

func (t *TopK) swap(i, j int) {
	t.h[i], t.h[j] = t.h[j], t.h[i]
	t.h[i].idx, t.h[j].idx = i, j
}

// Total returns the number of touches observed.
func (t *TopK) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Top returns up to n entries ranked by count descending (0 = all
// monitored). Ties break by key for stable output.
func (t *TopK) Top(n int) []HotKey {
	t.mu.Lock()
	out := make([]HotKey, 0, len(t.h))
	for _, e := range t.h {
		out = append(out, HotKey{Key: e.key, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Reset clears the sketch.
func (t *TopK) Reset() {
	t.mu.Lock()
	clear(t.m)
	clear(t.h)
	t.h = t.h[:0]
	t.total = 0
	t.mu.Unlock()
}
