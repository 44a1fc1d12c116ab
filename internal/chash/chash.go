// Package chash implements the consistent-hash ring LocoFS uses to place
// file metadata on File Metadata Servers (§3.1): the key
// directory_uuid + file_name is hashed onto a ring of virtual nodes, so a
// file's FMS is computable by any client with no directory-tree traversal,
// and adding or removing a server relocates only ~1/n of the keys.
package chash

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the number of ring points per server. More points
// smooth the load distribution at the cost of a larger ring.
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring mapping byte-string keys to integer server
// IDs. It is safe for concurrent use; lookups take a read lock only.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []point // sorted by hash
	ids    map[int]struct{}
}

type point struct {
	hash uint64
	id   int
}

// NewRing returns a ring with vnodes virtual nodes per server (or
// DefaultVirtualNodes if vnodes <= 0) containing the given server IDs.
func NewRing(vnodes int, serverIDs ...int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, ids: make(map[int]struct{})}
	for _, id := range serverIDs {
		r.Add(id)
	}
	return r
}

func hashKey(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV alone distributes similar short
// strings (like the vnode labels) poorly around the ring; the finalizer
// provides full avalanche so arcs are near-uniform. The function is fixed —
// placement must be stable across process restarts.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a server's virtual nodes into the ring. Adding an existing
// server is a no-op.
func (r *Ring) Add(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ids[id]; ok {
		return
	}
	r.ids[id] = struct{}{}
	for v := 0; v < r.vnodes; v++ {
		h := hashKey([]byte(fmt.Sprintf("srv-%d-vn-%d", id, v)))
		r.points = append(r.points, point{hash: h, id: id})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a server's virtual nodes from the ring.
func (r *Ring) Remove(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ids[id]; !ok {
		return
	}
	delete(r.ids, id)
	out := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			out = append(out, p)
		}
	}
	r.points = out
}

// Locate returns the server ID owning key. It panics if the ring is empty —
// a configuration error, not a runtime condition.
func (r *Ring) Locate(key []byte) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		panic("chash: locate on empty ring")
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id
}

// Servers returns the current server IDs in ascending order.
func (r *Ring) Servers() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int, 0, len(r.ids))
	for id := range r.ids {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Size returns the number of servers on the ring.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ids)
}

// Clone returns an independent copy of the ring (same vnode count and
// servers). The copy shares no state with the original, so one side can be
// mutated to model a membership change while the other keeps serving.
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Ring{vnodes: r.vnodes, ids: make(map[int]struct{}, len(r.ids))}
	for id := range r.ids {
		c.ids[id] = struct{}{}
	}
	c.points = append([]point(nil), r.points...)
	return c
}

// Moved reports whether key is owned by different servers on the two rings —
// i.e. whether a membership change from old to next relocates it. Both rings
// must be non-empty.
func Moved(old, next *Ring, key []byte) bool {
	return old.Locate(key) != next.Locate(key)
}

// MovedKeys filters keys down to those whose owner differs between old and
// next — the ~1/n slice a membership change actually migrates. The returned
// indices refer to positions in keys.
func MovedKeys(old, next *Ring, keys [][]byte) []int {
	var out []int
	for i, k := range keys {
		if Moved(old, next, k) {
			out = append(out, i)
		}
	}
	return out
}
