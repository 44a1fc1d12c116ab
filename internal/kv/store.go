// Package kv implements the key-value store engines LocoFS metadata servers
// run on — the role Kyoto Cabinet plays in the paper.
//
// Two engines are provided behind a common Store interface:
//
//   - HashStore: a sharded hash table, the analog of Kyoto Cabinet's HashDB.
//     Fast point operations, no key ordering.
//   - BTreeStore: a B+ tree, the analog of Kyoto Cabinet's TreeDB. Keys are
//     kept in byte order, enabling ordered scans and the prefix-range move
//     that makes directory rename cheap (§3.4.3).
//
// Both engines support the paper's serialization-free access (§3.3.3):
// PatchInPlace overwrites a fixed-offset field inside a stored value without
// reading, decoding, or rewriting the rest, and AppendValue extends a value
// (used for concatenated dirent lists) in place, with Go's geometric growth,
// so an append costs the appended bytes. A stored value may therefore carry
// spare capacity; scan callbacks are handed it capacity-clipped, so a
// callback that appends to a value reallocates instead of writing into the
// store.
package kv

import (
	"hash/maphash"
	"sync"
)

// Store is the interface both engines implement. Keys and values are byte
// strings; implementations must not retain or mutate caller-provided slices
// and must not expose internal storage writably: Get returns a copy, and the
// values ForEach and AscendRange hand their callbacks are capacity-clipped
// (v[:len(v):len(v)]), since AppendValue grows values in place.
type Store interface {
	// Get returns a copy of the value stored under key.
	Get(key []byte) ([]byte, bool)
	// Put stores value under key, replacing any prior value.
	Put(key, value []byte)
	// Delete removes key and reports whether it was present.
	Delete(key []byte) bool
	// PatchInPlace overwrites len(data) bytes at byte offset off of the
	// value stored under key. It reports false if the key is absent or the
	// patch does not fit inside the existing value.
	PatchInPlace(key []byte, off int, data []byte) bool
	// ReadAt copies the value bytes [off, off+len(buf)) into buf, returning
	// false if the key is absent or the range is out of bounds. It is the
	// read-side counterpart of PatchInPlace: a single field can be fetched
	// without materializing the whole value.
	ReadAt(key []byte, off int, buf []byte) bool
	// AppendValue appends data to the value under key, creating the key
	// with value == data if absent. The in-memory engines append in place:
	// amortised O(len(data)), whatever the value's length.
	AppendValue(key, data []byte)
	// Len returns the number of stored keys.
	Len() int
	// ForEach visits every record in unspecified order until fn returns
	// false. The callback must not modify the store; the value it is handed
	// is capacity-clipped, so appending to it copies.
	ForEach(fn func(key, value []byte) bool)
}

// Ordered is implemented by engines that keep keys sorted.
type Ordered interface {
	Store
	// AscendRange visits records with start <= key < end in key order
	// until fn returns false. A nil end means "to the last key".
	AscendRange(start, end []byte, fn func(key, value []byte) bool)
	// AscendPrefix visits records whose key has the given prefix, in order.
	AscendPrefix(prefix []byte, fn func(key, value []byte) bool)
	// MovePrefix rewrites every key beginning with oldPrefix to begin with
	// newPrefix instead, returning the number of records moved. Because
	// keys are sorted, the affected records are physically adjacent — this
	// is the TreeDB property the paper's d-rename optimization exploits.
	MovePrefix(oldPrefix, newPrefix []byte) int
}

// shardCount must be a power of two.
const shardCount = 64

// HashStore is a sharded in-memory hash table keyed by byte strings.
// It is safe for concurrent use.
type HashStore struct {
	seed   maphash.Seed
	shards [shardCount]hashShard
}

type hashShard struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewHashStore returns an empty HashStore.
func NewHashStore() *HashStore {
	s := &HashStore{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].m = make(map[string][]byte)
	}
	return s
}

func (s *HashStore) shard(key []byte) *hashShard {
	h := maphash.Bytes(s.seed, key)
	return &s.shards[h&(shardCount-1)]
}

// Get returns a copy of the value stored under key.
func (s *HashStore) Get(key []byte) ([]byte, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	v, ok := sh.m[string(key)]
	if !ok {
		sh.mu.RUnlock()
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	sh.mu.RUnlock()
	return out, true
}

// Put stores value under key, replacing any prior value.
func (s *HashStore) Put(key, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	sh := s.shard(key)
	sh.mu.Lock()
	sh.m[string(key)] = v
	sh.mu.Unlock()
}

// Delete removes key and reports whether it was present.
func (s *HashStore) Delete(key []byte) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	_, ok := sh.m[string(key)]
	if ok {
		delete(sh.m, string(key))
	}
	sh.mu.Unlock()
	return ok
}

// PatchInPlace overwrites a byte range of the stored value without copying
// the value out or rewriting it.
func (s *HashStore) PatchInPlace(key []byte, off int, data []byte) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.m[string(key)]
	if !ok || off < 0 || off+len(data) > len(v) {
		return false
	}
	copy(v[off:], data)
	return true
}

// ReadAt copies a byte range of the stored value into buf.
func (s *HashStore) ReadAt(key []byte, off int, buf []byte) bool {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.m[string(key)]
	if !ok || off < 0 || off+len(buf) > len(v) {
		return false
	}
	copy(buf, v[off:])
	return true
}

// AppendValue appends data to the value under key in place, creating it if
// absent.
func (s *HashStore) AppendValue(key, data []byte) {
	sh := s.shard(key)
	sh.mu.Lock()
	sh.m[string(key)] = append(sh.m[string(key)], data...)
	sh.mu.Unlock()
}

// Len returns the number of stored keys.
func (s *HashStore) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// ForEach visits every record in unspecified order. A full scan over a hash
// store is exactly the cost the paper's Fig 14 charges to hash-mode rename.
func (s *HashStore) ForEach(fn func(key, value []byte) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			if !fn([]byte(k), v[:len(v):len(v)]) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

var (
	_ Store = (*HashStore)(nil)
)
