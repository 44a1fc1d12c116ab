package client

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"locofs/internal/wire"
)

// underByScan reports whether p is at or under path, by the prefix rule the
// tree index replaces.
func underByScan(p, path string) bool {
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	return p == path || strings.HasPrefix(p, prefix)
}

// checkTreeIndex verifies the tree index against the tables: every path
// holding entries is filed with its count of kinds, every node holds
// entries or has children, and every child is filed under its parent.
func checkTreeIndex(t *testing.T, c *dirCache) {
	t.Helper()
	held := make(map[string]uint8)
	for k := range c.tabs {
		for p := range c.tabs[k] {
			held[p]++
		}
	}
	for p, n := range held {
		if c.tree[p].held != n {
			t.Fatalf("%q holds %d kinds, index says %d", p, n, c.tree[p].held)
		}
	}
	for p, node := range c.tree {
		if node.held != held[p] {
			t.Fatalf("index node %q says %d kinds, tables hold %d", p, node.held, held[p])
		}
		if node.held == 0 && len(node.kids) == 0 {
			t.Fatalf("index node %q holds nothing and has no children", p)
		}
		if parent, ok := parentOf(p); ok {
			if _, filed := c.tree[parent].kids[p]; !filed {
				t.Fatalf("index node %q is not filed under %q", p, parent)
			}
		}
		for kid := range node.kids {
			if parent, _ := parentOf(kid); parent != p {
				t.Fatalf("%q filed under %q, its parent is %q", kid, p, parent)
			}
			if _, ok := c.tree[kid]; !ok {
				t.Fatalf("%q filed under %q has no node", kid, p)
			}
		}
	}
}

// TestDropTreeMatchesPrefixScan: under random stores, subtree drops, single
// drops, invalidations, expiry and eviction, every subtree drop removes
// exactly the entries a scan of the whole cache by path prefix would, and
// the tree index stays consistent with the tables.
func TestDropTreeMatchesPrefixScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	now := time.Now()
	c := newDirCache(time.Minute, func() time.Time { return now }, 300, true, nil)
	path := func() string {
		if rng.Intn(20) == 0 {
			return "/"
		}
		var b strings.Builder
		for d := 0; d <= rng.Intn(4); d++ {
			b.WriteString("/" + string(rune('a'+rng.Intn(3))))
		}
		return b.String()
	}
	var seq uint64
	for i := 0; i < 20000; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			seq++
			g := wire.LeaseGrant{Seq: seq, DurMS: uint32(1000 + rng.Intn(60000))}
			switch rng.Intn(3) {
			case 0:
				c.putFrom(uint32(rng.Intn(2)), path(), freshInode(1), g)
			case 1:
				c.putNegFrom(uint32(rng.Intn(2)), path(), g)
			default:
				c.putListFrom(uint32(rng.Intn(2)), path(), nil, g)
			}
		case op < 8:
			p := path()
			src, at := uint32(rng.Intn(2)), uint64(rng.Int63n(int64(seq)+2))
			if rng.Intn(4) == 0 {
				src = srcAny
			}
			kinds := []int{recInode, recNeg, recList}[rng.Intn(2):]
			c.mu.Lock()
			var want [numKinds]map[string]bool
			for k := range c.tabs {
				want[k] = make(map[string]bool)
				for q, e := range c.tabs[k] {
					want[k][q] = true
					for _, dk := range kinds {
						if dk == k && e.hitBy(src, at) && underByScan(q, p) {
							delete(want[k], q)
						}
					}
				}
			}
			c.dropTreeLocked(src, p, at, kinds...)
			for k := range c.tabs {
				if len(c.tabs[k]) != len(want[k]) {
					t.Fatalf("op %d: drop of %q left %d entries of kind %d, a prefix scan leaves %d", i, p, len(c.tabs[k]), k, len(want[k]))
				}
				for q := range c.tabs[k] {
					if !want[k][q] {
						t.Fatalf("op %d: drop of %q kept %q (kind %d)", i, p, q, k)
					}
				}
			}
			c.mu.Unlock()
		case op == 8:
			c.invalidate(path())
		default:
			now = now.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
			c.get(path()) // evicts the entry if it expired
		}
		if i%97 == 0 {
			c.mu.Lock()
			checkTreeIndex(t, c)
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	checkTreeIndex(t, c)
	c.mu.Unlock()
	c.applyRecallsFrom(0, seq+1, true, nil) // a reset empties the index too
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.tree) != 0 {
		t.Fatalf("%d index nodes left after a reset", len(c.tree))
	}
}

// BenchmarkDropTree: a client's own rmdir of a three-entry subtree in a
// cache holding 64k unrelated entries. The drop's cost should be the
// subtree's, not the cache's.
func BenchmarkDropTree(b *testing.B) {
	c := newDirCache(time.Hour, nil, -1, true, nil)
	g := wire.LeaseGrant{Seq: 1, DurMS: uint32(time.Hour / time.Millisecond)}
	for i := 0; i < 64<<10; i++ {
		c.putFrom(0, fmt.Sprintf("/u/%d", i), freshInode(1), g)
	}
	ino := freshInode(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.putFrom(0, "/t", ino, g)
		c.putNegFrom(0, "/t/x", g)
		c.putFrom(0, "/t/x/y", ino, g)
		c.selfRemovedFrom(0, "/t", 0, 0)
	}
	b.StopTimer()
	if n := c.size(); n != 64<<10 {
		b.Fatalf("%d entries after the drops, want %d", n, 64<<10)
	}
}
