package kv

import (
	"bytes"
	"sort"
	"sync"
)

// B+ tree fanout. A node holding more than maxEntries keys splits; a
// non-root node holding fewer than minEntries keys borrows or merges.
const (
	maxEntries = 64
	minEntries = maxEntries / 2
)

// BTreeStore is an in-memory B+ tree keyed by byte strings — the analog of
// Kyoto Cabinet's TreeDB. Keys are kept sorted, so records sharing a prefix
// (e.g. every path under one directory) are physically adjacent, which makes
// AscendPrefix and MovePrefix proportional to the size of the affected range
// rather than to the whole store. It is safe for concurrent use.
type BTreeStore struct {
	mu   sync.RWMutex
	root node
	size int
}

type node interface{ isNode() }

type leafNode struct {
	keys [][]byte
	vals [][]byte
	next *leafNode
}

type innerNode struct {
	keys     [][]byte // keys[i] separates children[i] (<) from children[i+1] (>=)
	children []node
}

func (*leafNode) isNode()  {}
func (*innerNode) isNode() {}

// NewBTreeStore returns an empty BTreeStore.
func NewBTreeStore() *BTreeStore {
	return &BTreeStore{root: &leafNode{}}
}

// childIndex returns the index of the child subtree that may contain key.
func (n *innerNode) childIndex(key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(key, n.keys[i]) < 0
	})
}

// find returns the leaf and slot for key; ok reports an exact match.
func (t *BTreeStore) find(key []byte) (lf *leafNode, idx int, ok bool) {
	cur := t.root
	for {
		switch n := cur.(type) {
		case *innerNode:
			cur = n.children[n.childIndex(key)]
		case *leafNode:
			i := sort.Search(len(n.keys), func(i int) bool {
				return bytes.Compare(n.keys[i], key) >= 0
			})
			if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
				return n, i, true
			}
			return n, i, false
		}
	}
}

// Get returns a copy of the value stored under key.
func (t *BTreeStore) Get(key []byte) ([]byte, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	lf, i, ok := t.find(key)
	if !ok {
		return nil, false
	}
	out := make([]byte, len(lf.vals[i]))
	copy(out, lf.vals[i])
	return out, true
}

// Put stores value under key, replacing any prior value.
func (t *BTreeStore) Put(key, value []byte) {
	t.mu.Lock()
	t.put(key, value)
	t.mu.Unlock()
}

func (t *BTreeStore) put(key, value []byte) {
	k := append([]byte(nil), key...)
	v := append([]byte(nil), value...)
	sep, right, grew := insertRec(t.root, k, v)
	if grew {
		t.size++
	}
	if right != nil {
		t.root = &innerNode{keys: [][]byte{sep}, children: []node{t.root, right}}
	}
}

// insertRec inserts (key, value) under n. If n splits, it returns the
// separator key and the new right sibling. grew reports whether a new key
// (vs. a replacement) was stored.
func insertRec(n node, key, value []byte) (sep []byte, right node, grew bool) {
	switch n := n.(type) {
	case *leafNode:
		i := sort.Search(len(n.keys), func(i int) bool {
			return bytes.Compare(n.keys[i], key) >= 0
		})
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			n.vals[i] = value
			return nil, nil, false
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = value
		if len(n.keys) <= maxEntries {
			return nil, nil, true
		}
		mid := len(n.keys) / 2
		r := &leafNode{
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([][]byte(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid:mid]
		n.vals = n.vals[:mid:mid]
		n.next = r
		return r.keys[0], r, true
	case *innerNode:
		ci := n.childIndex(key)
		s, r, g := insertRec(n.children[ci], key, value)
		if r != nil {
			n.keys = append(n.keys, nil)
			copy(n.keys[ci+1:], n.keys[ci:])
			n.keys[ci] = s
			n.children = append(n.children, nil)
			copy(n.children[ci+2:], n.children[ci+1:])
			n.children[ci+1] = r
			if len(n.keys) > maxEntries {
				mid := len(n.keys) / 2
				sepUp := n.keys[mid]
				rn := &innerNode{
					keys:     append([][]byte(nil), n.keys[mid+1:]...),
					children: append([]node(nil), n.children[mid+1:]...),
				}
				n.keys = n.keys[:mid:mid]
				n.children = n.children[: mid+1 : mid+1]
				return sepUp, rn, g
			}
		}
		return nil, nil, g
	}
	panic("kv: unknown node type")
}

// Delete removes key and reports whether it was present.
func (t *BTreeStore) Delete(key []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.delete(key)
}

func (t *BTreeStore) delete(key []byte) bool {
	removed := deleteRec(t.root, key)
	if removed {
		t.size--
	}
	// Collapse a root that has become a single-child inner node.
	if r, ok := t.root.(*innerNode); ok && len(r.children) == 1 {
		t.root = r.children[0]
	}
	return removed
}

// deleteRec removes key from the subtree rooted at n. Underflow at n is
// repaired by n's parent (rebalance); the root is allowed to underflow.
func deleteRec(n node, key []byte) bool {
	switch n := n.(type) {
	case *leafNode:
		i := sort.Search(len(n.keys), func(i int) bool {
			return bytes.Compare(n.keys[i], key) >= 0
		})
		if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return true
	case *innerNode:
		ci := n.childIndex(key)
		removed := deleteRec(n.children[ci], key)
		if removed {
			n.rebalance(ci)
		}
		return removed
	}
	panic("kv: unknown node type")
}

// underflown reports whether child c holds fewer than minEntries keys.
func underflown(c node) bool {
	switch c := c.(type) {
	case *leafNode:
		return len(c.keys) < minEntries
	case *innerNode:
		return len(c.keys) < minEntries
	}
	return false
}

// rebalance repairs an underflown child at index ci by borrowing from a
// sibling or merging with one.
func (n *innerNode) rebalance(ci int) {
	child := n.children[ci]
	if !underflown(child) {
		return
	}
	switch c := child.(type) {
	case *leafNode:
		if ci > 0 {
			l := n.children[ci-1].(*leafNode)
			if len(l.keys) > minEntries { // borrow from left
				last := len(l.keys) - 1
				c.keys = append([][]byte{l.keys[last]}, c.keys...)
				c.vals = append([][]byte{l.vals[last]}, c.vals...)
				l.keys = l.keys[:last]
				l.vals = l.vals[:last]
				n.keys[ci-1] = c.keys[0]
				return
			}
		}
		if ci < len(n.children)-1 {
			r := n.children[ci+1].(*leafNode)
			if len(r.keys) > minEntries { // borrow from right
				c.keys = append(c.keys, r.keys[0])
				c.vals = append(c.vals, r.vals[0])
				r.keys = r.keys[1:]
				r.vals = r.vals[1:]
				n.keys[ci] = r.keys[0]
				return
			}
		}
		// merge with a sibling
		if ci > 0 {
			l := n.children[ci-1].(*leafNode)
			l.keys = append(l.keys, c.keys...)
			l.vals = append(l.vals, c.vals...)
			l.next = c.next
			n.removeChild(ci)
		} else {
			r := n.children[ci+1].(*leafNode)
			c.keys = append(c.keys, r.keys...)
			c.vals = append(c.vals, r.vals...)
			c.next = r.next
			n.removeChild(ci + 1)
		}
	case *innerNode:
		if ci > 0 {
			l := n.children[ci-1].(*innerNode)
			if len(l.keys) > minEntries { // rotate right through parent
				c.keys = append([][]byte{n.keys[ci-1]}, c.keys...)
				c.children = append([]node{l.children[len(l.children)-1]}, c.children...)
				n.keys[ci-1] = l.keys[len(l.keys)-1]
				l.keys = l.keys[:len(l.keys)-1]
				l.children = l.children[:len(l.children)-1]
				return
			}
		}
		if ci < len(n.children)-1 {
			r := n.children[ci+1].(*innerNode)
			if len(r.keys) > minEntries { // rotate left through parent
				c.keys = append(c.keys, n.keys[ci])
				c.children = append(c.children, r.children[0])
				n.keys[ci] = r.keys[0]
				r.keys = r.keys[1:]
				r.children = r.children[1:]
				return
			}
		}
		if ci > 0 { // merge into left sibling
			l := n.children[ci-1].(*innerNode)
			l.keys = append(l.keys, n.keys[ci-1])
			l.keys = append(l.keys, c.keys...)
			l.children = append(l.children, c.children...)
			n.removeChild(ci)
		} else { // merge right sibling into c
			r := n.children[ci+1].(*innerNode)
			c.keys = append(c.keys, n.keys[ci])
			c.keys = append(c.keys, r.keys...)
			c.children = append(c.children, r.children...)
			n.removeChild(ci + 1)
		}
	}
}

// removeChild drops children[ci] and its left separator key.
func (n *innerNode) removeChild(ci int) {
	n.children = append(n.children[:ci], n.children[ci+1:]...)
	sep := ci - 1
	if sep < 0 {
		sep = 0
	}
	n.keys = append(n.keys[:sep], n.keys[sep+1:]...)
}

// PatchInPlace overwrites a byte range of the stored value in place.
func (t *BTreeStore) PatchInPlace(key []byte, off int, data []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	lf, i, ok := t.find(key)
	if !ok || off < 0 || off+len(data) > len(lf.vals[i]) {
		return false
	}
	copy(lf.vals[i][off:], data)
	return true
}

// ReadAt copies a byte range of the stored value into buf.
func (t *BTreeStore) ReadAt(key []byte, off int, buf []byte) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	lf, i, ok := t.find(key)
	if !ok || off < 0 || off+len(buf) > len(lf.vals[i]) {
		return false
	}
	copy(buf, lf.vals[i][off:])
	return true
}

// AppendValue appends data to the value under key in place, creating it if
// absent.
func (t *BTreeStore) AppendValue(key, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lf, i, ok := t.find(key)
	if ok {
		lf.vals[i] = append(lf.vals[i], data...)
		return
	}
	t.put(key, data)
}

// Len returns the number of stored keys.
func (t *BTreeStore) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// firstLeaf returns the leftmost leaf.
func (t *BTreeStore) firstLeaf() *leafNode {
	cur := t.root
	for {
		switch n := cur.(type) {
		case *innerNode:
			cur = n.children[0]
		case *leafNode:
			return n
		}
	}
}

// ForEach visits every record in ascending key order.
func (t *BTreeStore) ForEach(fn func(key, value []byte) bool) {
	t.AscendRange(nil, nil, fn)
}

// AscendRange visits records with start <= key < end in key order. A nil
// start begins at the first key; a nil end continues to the last. Values
// are handed over capacity-clipped (see Store).
func (t *BTreeStore) AscendRange(start, end []byte, fn func(key, value []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var lf *leafNode
	var i int
	if start == nil {
		lf, i = t.firstLeaf(), 0
	} else {
		lf, i, _ = t.find(start)
	}
	for lf != nil {
		for ; i < len(lf.keys); i++ {
			if end != nil && bytes.Compare(lf.keys[i], end) >= 0 {
				return
			}
			v := lf.vals[i]
			if !fn(lf.keys[i], v[:len(v):len(v)]) {
				return
			}
		}
		lf, i = lf.next, 0
	}
}

// AscendPrefix visits records whose key begins with prefix, in key order.
func (t *BTreeStore) AscendPrefix(prefix []byte, fn func(key, value []byte) bool) {
	t.AscendRange(prefix, PrefixSuccessor(prefix), fn)
}

// MovePrefix rewrites every key beginning with oldPrefix to begin with
// newPrefix. Because keys are sorted the affected records form one
// contiguous range — the whole point of running the DMS on the tree engine.
func (t *BTreeStore) MovePrefix(oldPrefix, newPrefix []byte) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := PrefixSuccessor(oldPrefix)
	type rec struct{ k, v []byte }
	var moved []rec
	lf, i, _ := t.find(oldPrefix)
	for lf != nil {
		for ; i < len(lf.keys); i++ {
			k := lf.keys[i]
			if end != nil && bytes.Compare(k, end) >= 0 {
				goto collectDone
			}
			nk := make([]byte, 0, len(newPrefix)+len(k)-len(oldPrefix))
			nk = append(nk, newPrefix...)
			nk = append(nk, k[len(oldPrefix):]...)
			moved = append(moved, rec{k: nk, v: lf.vals[i]})
		}
		lf, i = lf.next, 0
	}
collectDone:
	for _, r := range moved {
		old := make([]byte, 0, len(oldPrefix)+len(r.k)-len(newPrefix))
		old = append(old, oldPrefix...)
		old = append(old, r.k[len(newPrefix):]...)
		t.delete(old)
	}
	for _, r := range moved {
		t.put(r.k, r.v)
	}
	return len(moved)
}

// PrefixSuccessor returns the smallest key greater than every key having the
// given prefix, or nil if no such key exists (prefix is all 0xFF).
func PrefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			out := append([]byte(nil), prefix[:i+1]...)
			out[i]++
			return out
		}
	}
	return nil
}

var (
	_ Store   = (*BTreeStore)(nil)
	_ Ordered = (*BTreeStore)(nil)
)
