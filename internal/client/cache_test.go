package client

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/layout"
	"locofs/internal/wire"
)

func freshInode(uidTag uint32) layout.DirInode {
	ino := layout.NewDirInode()
	ino.SetUID(uidTag)
	return ino
}

func TestCachePutGet(t *testing.T) {
	now := time.Now()
	c := newDirCache(30*time.Second, func() time.Time { return now }, 0, false, nil)
	c.put("/a", freshInode(1), wire.LeaseGrant{})
	got, ok := c.get("/a")
	if !ok || got.UID() != 1 {
		t.Fatalf("get = %v, %v", got, ok)
	}
	if _, ok := c.get("/b"); ok {
		t.Error("got missing entry")
	}
	hits, misses := c.stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestCacheLeaseExpiry(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	c := newDirCache(30*time.Second, clock, 0, false, nil)
	c.put("/a", freshInode(1), wire.LeaseGrant{})
	now = now.Add(29 * time.Second)
	if _, ok := c.get("/a"); !ok {
		t.Error("entry expired before lease")
	}
	now = now.Add(2 * time.Second) // lease was refreshed by put only, not get
	if _, ok := c.get("/a"); ok {
		t.Error("entry alive past lease")
	}
	if c.size() != 0 {
		t.Error("expired entry not evicted")
	}
}

func TestCachePutRefreshesLease(t *testing.T) {
	now := time.Now()
	c := newDirCache(30*time.Second, func() time.Time { return now }, 0, false, nil)
	c.put("/a", freshInode(1), wire.LeaseGrant{})
	now = now.Add(20 * time.Second)
	c.put("/a", freshInode(2), wire.LeaseGrant{})
	now = now.Add(20 * time.Second) // 40s since first put, 20s since refresh
	got, ok := c.get("/a")
	if !ok || got.UID() != 2 {
		t.Errorf("refreshed entry = %v, %v", got, ok)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newDirCache(time.Hour, nil, 0, false, nil)
	c.put("/a", freshInode(1), wire.LeaseGrant{})
	c.invalidate("/a")
	if _, ok := c.get("/a"); ok {
		t.Error("invalidated entry still visible")
	}
}

func TestCacheInvalidateSubtree(t *testing.T) {
	c := newDirCache(time.Hour, nil, 0, false, nil)
	for _, p := range []string{"/a", "/a/b", "/a/b/c", "/ab", "/z"} {
		c.put(p, freshInode(1), wire.LeaseGrant{})
	}
	c.invalidateSubtree("/a")
	for _, gone := range []string{"/a", "/a/b", "/a/b/c"} {
		if _, ok := c.get(gone); ok {
			t.Errorf("%s survived subtree invalidation", gone)
		}
	}
	for _, kept := range []string{"/ab", "/z"} {
		if _, ok := c.get(kept); !ok {
			t.Errorf("%s wrongly invalidated", kept)
		}
	}
}

func TestCacheInvalidateSubtreeRoot(t *testing.T) {
	c := newDirCache(time.Hour, nil, 0, false, nil)
	c.put("/", freshInode(1), wire.LeaseGrant{})
	c.put("/x", freshInode(1), wire.LeaseGrant{})
	c.invalidateSubtree("/")
	if c.size() != 0 {
		t.Errorf("size = %d after invalidating /", c.size())
	}
}

func TestCacheStoresCopy(t *testing.T) {
	c := newDirCache(time.Hour, nil, 0, false, nil)
	ino := freshInode(1)
	c.put("/a", ino, wire.LeaseGrant{})
	ino.SetUID(99) // mutate caller's copy
	got, _ := c.get("/a")
	if got.UID() != 1 {
		t.Error("cache shares storage with caller")
	}
}

func TestCacheDefaultLease(t *testing.T) {
	c := newDirCache(0, nil, 0, false, nil)
	if c.lease != DefaultLease {
		t.Errorf("lease = %v, want %v", c.lease, DefaultLease)
	}
}

func TestCacheCapEvictsOldest(t *testing.T) {
	c := newDirCache(time.Hour, nil, 4, false, nil)
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("/d%d", i), freshInode(uint32(i)), wire.LeaseGrant{})
	}
	if got := c.size(); got != 4 {
		t.Fatalf("size = %d, want cap 4", got)
	}
	if got := c.evicted(); got != 6 {
		t.Errorf("evicted = %d, want 6", got)
	}
	for i := 0; i < 6; i++ {
		if _, ok := c.get(fmt.Sprintf("/d%d", i)); ok {
			t.Errorf("oldest entry /d%d survived eviction", i)
		}
	}
	for i := 6; i < 10; i++ {
		if got, ok := c.get(fmt.Sprintf("/d%d", i)); !ok || got.UID() != uint32(i) {
			t.Errorf("newest entry /d%d missing", i)
		}
	}
}

func TestCacheRePutKeepsSiblings(t *testing.T) {
	c := newDirCache(time.Hour, nil, 3, false, nil)
	c.put("/a", freshInode(1), wire.LeaseGrant{})
	c.put("/b", freshInode(2), wire.LeaseGrant{})
	// Refreshing one path many times must not push siblings out.
	for i := 0; i < 50; i++ {
		c.put("/a", freshInode(uint32(100+i)), wire.LeaseGrant{})
	}
	if _, ok := c.get("/b"); !ok {
		t.Error("re-puts of /a evicted sibling /b")
	}
	if got := c.size(); got != 2 {
		t.Errorf("size = %d, want 2", got)
	}
	if got := c.evicted(); got != 0 {
		t.Errorf("evicted = %d, want 0", got)
	}
}

func TestCacheUnboundedWhenNegative(t *testing.T) {
	c := newDirCache(time.Hour, nil, -1, false, nil)
	for i := 0; i < DefaultCacheEntries/8; i++ {
		c.put(fmt.Sprintf("/u%d", i), freshInode(1), wire.LeaseGrant{})
	}
	if got := c.size(); got != DefaultCacheEntries/8 {
		t.Errorf("size = %d, want %d (unbounded)", got, DefaultCacheEntries/8)
	}
}

func TestCacheFifoCompaction(t *testing.T) {
	c := newDirCache(time.Hour, nil, 1000, false, nil)
	// Many invalidated puts must not grow the fifo without bound.
	for i := 0; i < 10000; i++ {
		p := fmt.Sprintf("/t%d", i%7)
		c.put(p, freshInode(1), wire.LeaseGrant{})
		c.invalidate(p)
	}
	c.mu.Lock()
	fifoLen := len(c.fifo)
	c.mu.Unlock()
	if fifoLen > 2*7+16+1 {
		t.Errorf("fifo holds %d records for %d live entries", fifoLen, c.size())
	}
}

// TestCacheExpiryRePutRace: an expired-entry eviction inside get must not
// delete a fresh entry a concurrent put installed under the same path
// between get's read-lock probe and its write-lock cleanup. The clock is
// driven from an atomic so expiry flips while getters are in that window;
// with the blind delete this loses fresh leases (and the final re-put +
// get assertion flushes the loss out deterministically).
func TestCacheExpiryRePutRace(t *testing.T) {
	var nowNS atomic.Int64
	base := time.Unix(1000, 0)
	nowNS.Store(0)
	clock := func() time.Time { return base.Add(time.Duration(nowNS.Load())) }
	c := newDirCache(time.Millisecond, clock, 0, false, nil)

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := fmt.Sprintf("/race/%d", i%3)
				switch w % 3 {
				case 0:
					c.put(p, freshInode(uint32(w)), wire.LeaseGrant{})
				case 1:
					c.get(p)
				case 2:
					nowNS.Add(int64(time.Millisecond) / 4) // expire entries mid-flight
					c.get(p)
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// A put must always be visible for its full lease afterwards.
	c.put("/race/0", freshInode(9), wire.LeaseGrant{})
	if got, ok := c.get("/race/0"); !ok || got.UID() != 9 {
		t.Fatalf("fresh put invisible after stress: %v %v", got, ok)
	}
}

// TestCacheStressOverlappingSubtrees hammers get/put/invalidateSubtree on
// overlapping paths; run with -race this is the regression net for the
// cache's lock discipline.
func TestCacheStressOverlappingSubtrees(t *testing.T) {
	c := newDirCache(5*time.Millisecond, nil, 64, false, nil)
	paths := []string{"/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/x", "/z"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 9; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(i+w)%len(paths)]
				switch w % 3 {
				case 0:
					c.put(p, freshInode(uint32(i)), wire.LeaseGrant{})
				case 1:
					c.get(p)
				case 2:
					c.invalidateSubtree(paths[w%2]) // "/a" and "/a/b"
				}
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	if c.size() > 64 {
		t.Errorf("size %d exceeds cap", c.size())
	}
}
