package chash

import (
	"fmt"
	"testing"
)

func TestLocateDeterministic(t *testing.T) {
	r := NewRing(0, 0, 1, 2, 3)
	key := []byte("dir-uuid+file-name")
	first := r.Locate(key)
	for i := 0; i < 100; i++ {
		if got := r.Locate(key); got != first {
			t.Fatalf("Locate not deterministic: %d then %d", first, got)
		}
	}
}

func TestLocateCoversAllServers(t *testing.T) {
	r := NewRing(0, 0, 1, 2, 3)
	hits := map[int]int{}
	for i := 0; i < 10000; i++ {
		hits[r.Locate([]byte(fmt.Sprintf("key-%d", i)))]++
	}
	for id := 0; id < 4; id++ {
		if hits[id] == 0 {
			t.Errorf("server %d received no keys", id)
		}
	}
}

func TestBalance(t *testing.T) {
	const servers = 8
	ids := make([]int, servers)
	for i := range ids {
		ids[i] = i
	}
	r := NewRing(512, ids...)
	hits := make([]int, servers)
	const keys = 100000
	for i := 0; i < keys; i++ {
		hits[r.Locate([]byte(fmt.Sprintf("file-%d", i)))]++
	}
	mean := keys / servers
	for id, h := range hits {
		if h < mean/2 || h > mean*2 {
			t.Errorf("server %d has %d keys; mean %d — ring badly imbalanced", id, h, mean)
		}
	}
}

func TestMinimalMovementOnAdd(t *testing.T) {
	r := NewRing(DefaultVirtualNodes, 0, 1, 2, 3)
	const keys = 20000
	before := make([]int, keys)
	for i := range before {
		before[i] = r.Locate([]byte(fmt.Sprintf("k%d", i)))
	}
	r.Add(4)
	moved := 0
	for i := range before {
		if r.Locate([]byte(fmt.Sprintf("k%d", i))) != before[i] {
			moved++
		}
	}
	// Ideal movement is 1/5 of keys; allow generous slack.
	if moved > keys/3 {
		t.Errorf("adding one server moved %d/%d keys (> 1/3)", moved, keys)
	}
	if moved == 0 {
		t.Error("adding a server moved no keys at all")
	}
}

func TestRemoveServer(t *testing.T) {
	r := NewRing(0, 0, 1, 2)
	r.Remove(1)
	if got := r.Servers(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Servers after remove = %v", got)
	}
	for i := 0; i < 1000; i++ {
		if id := r.Locate([]byte(fmt.Sprintf("k%d", i))); id == 1 {
			t.Fatal("removed server still receives keys")
		}
	}
	r.Remove(1) // no-op
	if r.Size() != 2 {
		t.Errorf("Size = %d", r.Size())
	}
}

func TestAddIdempotent(t *testing.T) {
	r := NewRing(16, 5)
	r.Add(5)
	if r.Size() != 1 {
		t.Errorf("Size = %d after duplicate Add", r.Size())
	}
}

func TestClone(t *testing.T) {
	r := NewRing(0, 0, 1, 2, 3)
	c := r.Clone()
	if got := c.Servers(); len(got) != 4 {
		t.Fatalf("clone servers = %v", got)
	}
	// Mutating the clone must not affect the original.
	c.Add(4)
	if r.Size() != 4 {
		t.Errorf("original mutated by clone: size=%d", r.Size())
	}
	// Identical membership ⇒ identical placement.
	key := []byte("dir-uuid+file-name")
	c2 := r.Clone()
	if r.Locate(key) != c2.Locate(key) {
		t.Error("clone places keys differently")
	}
}

func TestMovedKeysFraction(t *testing.T) {
	old := NewRing(DefaultVirtualNodes, 0, 1, 2, 3)
	next := old.Clone()
	next.Add(4)
	const n = 20000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%d", i))
	}
	moved := MovedKeys(old, next, keys)
	// Ideal is 1/5 of keys; allow generous slack either way.
	if len(moved) == 0 || len(moved) > n/3 {
		t.Errorf("MovedKeys moved %d/%d keys, want ≈%d", len(moved), n, n/5)
	}
	// Every moved key must be owned by the new server (add case), and every
	// moved index must agree with Moved.
	for _, i := range moved {
		if !Moved(old, next, keys[i]) {
			t.Fatalf("MovedKeys returned index %d but Moved reports false", i)
		}
		if next.Locate(keys[i]) != 4 {
			t.Fatalf("key %d moved to server %d, not the added server", i, next.Locate(keys[i]))
		}
	}
}

func TestLocateEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Locate on empty ring did not panic")
		}
	}()
	NewRing(0).Locate([]byte("k"))
}
