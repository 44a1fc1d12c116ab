package client

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// newCoherentCache returns a lease-coherent cache (negatives on) on a
// manually-advanced clock.
func newCoherentCache(maxEntries int) (*dirCache, *atomic.Int64) {
	var ns atomic.Int64
	base := time.Unix(1000, 0)
	clock := func() time.Time { return base.Add(time.Duration(ns.Load())) }
	return newDirCache(0, clock, maxEntries, true, nil), &ns
}

func grant(seq uint64) wire.LeaseGrant {
	return wire.LeaseGrant{Seq: seq, DurMS: 30_000}
}

// TestCoherentFreshnessGate: an entry is served while it provably postdates
// or survived every observed mutation; once a newer sequence is observed it
// degrades to a conservative miss but is kept, and serving resumes after
// the recalls are applied and prove it untouched.
func TestCoherentFreshnessGate(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.put("/a", freshInode(1), grant(5))
	c.observe(5)
	if _, ok := c.get("/a"); !ok {
		t.Fatal("entry at the observed watermark missed")
	}

	// A mutation happened somewhere: stamped sequence moves to 7.
	c.observe(7)
	if _, ok := c.get("/a"); ok {
		t.Fatal("entry served despite unapplied recalls")
	}
	if d := c.detail(); d.StaleMisses != 1 || d.Entries != 1 {
		t.Fatalf("stale access should keep the entry: %+v", d)
	}

	// The recalls turn out to be about someone else: the entry survives
	// application and is servable again.
	c.applyRecalls(7, false, []wire.Recall{{Seq: 6, Kind: wire.RecallPatched, Path: "/other"}, {Seq: 7, Kind: wire.RecallPatched, Path: "/other2"}})
	if _, ok := c.get("/a"); !ok {
		t.Fatal("entry not served after recalls proved it untouched")
	}
	if d := c.detail(); d.AppliedSeq != 7 || d.MaxSeq != 7 {
		t.Fatalf("watermarks = %+v", d)
	}
}

// TestMissCarriesNoPayload: a listing that may not be served — its source is
// behind, or its lease is over — is a miss with no entries. A caller handed
// the old entries beside ok=false would page on from them (see
// TestReaddirStaleListingNotServed).
func TestMissCarriesNoPayload(t *testing.T) {
	c, ns := newCoherentCache(0)
	c.putList("/l", []DirEntry{{Name: "x", IsDir: true}}, grant(5))
	c.observe(7) // recalls observed, not applied: kept, not served
	if ents, ok := c.getList("/l"); ok || ents != nil {
		t.Errorf("listing behind its source: getList = %v, %v", ents, ok)
	}
	c.applyRecalls(7, false, nil)
	if ents, ok := c.getList("/l"); !ok || len(ents) != 1 {
		t.Fatalf("listing proved untouched: getList = %v, %v", ents, ok)
	}
	ns.Store(int64(31 * time.Second))
	if ents, ok := c.getList("/l"); ok || ents != nil {
		t.Errorf("expired listing: getList = %v, %v", ents, ok)
	}
}

// TestRecallSeqGuard: a recall drops only entries granted before it;
// entries granted at or after the recall's sequence postdate the mutation
// and survive.
func TestRecallSeqGuard(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.put("/old", freshInode(1), grant(3))
	c.put("/new", freshInode(2), grant(9))
	c.applyRecalls(9, false, []wire.Recall{
		{Seq: 8, Kind: wire.RecallPatched, Path: "/old"},
		{Seq: 8, Kind: wire.RecallPatched, Path: "/new"},
	})
	if _, ok := c.get("/old"); ok {
		t.Error("entry granted before the recall survived it")
	}
	if _, ok := c.get("/new"); !ok {
		t.Error("entry granted after the recall was dropped")
	}
}

// TestNegativeDroppedOnCreateRecall: a created-recall kills negative
// entries at and under the created path, and the parent's listing.
func TestNegativeDroppedOnCreateRecall(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.putNeg("/p/x", grant(1))
	c.putNeg("/p/x/deep", grant(1))
	c.putNeg("/p/other", grant(1))
	c.putList("/p", []DirEntry{{Name: "s"}}, grant(1))
	c.putList("/q", []DirEntry{{Name: "s"}}, grant(1))

	c.applyRecalls(2, false, []wire.Recall{{Seq: 2, Kind: wire.RecallCreated, Path: "/p/x"}})
	if c.negHit("/p/x") {
		t.Error("negative entry for created path survived")
	}
	if c.negHit("/p/x/deep") {
		t.Error("negative entry under created path survived")
	}
	if !c.negHit("/p/other") {
		t.Error("unrelated negative entry dropped")
	}
	if _, ok := c.getList("/p"); ok {
		t.Error("parent listing survived a create under it")
	}
	if _, ok := c.getList("/q"); !ok {
		t.Error("unrelated listing dropped")
	}
}

// TestRemovedRecallDropsSubtree: a removed-recall drops inodes, negatives
// and listings at/under the path plus the parent's listing.
func TestRemovedRecallDropsSubtree(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.put("/p/x", freshInode(1), grant(1))
	c.put("/p/x/sub", freshInode(2), grant(1))
	c.put("/p/xx", freshInode(3), grant(1))
	c.putList("/p/x", nil, grant(1))
	c.putList("/p", []DirEntry{{Name: "x"}}, grant(1))

	c.applyRecalls(2, false, []wire.Recall{{Seq: 2, Kind: wire.RecallRemoved, Path: "/p/x"}})
	if _, ok := c.get("/p/x"); ok {
		t.Error("removed inode served")
	}
	if _, ok := c.get("/p/x/sub"); ok {
		t.Error("inode under removed path served")
	}
	if _, ok := c.get("/p/xx"); !ok {
		t.Error("sibling with shared name prefix dropped")
	}
	if _, ok := c.getList("/p/x"); ok {
		t.Error("listing of removed path served")
	}
	if _, ok := c.getList("/p"); ok {
		t.Error("parent listing survived a remove under it")
	}
}

// TestPutGuardAfterAppliedRecall: a response that was in flight while a
// newer recall was fetched and applied must not reinstall the entry that
// recall dropped.
func TestPutGuardAfterAppliedRecall(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.applyRecalls(10, false, nil) // applied watermark: 10
	c.put("/a", freshInode(1), grant(5))
	if _, ok := c.get("/a"); ok {
		t.Error("put with a pre-recall grant resurrected a dropped entry")
	}
	c.putNeg("/n", grant(5))
	if c.negHit("/n") {
		t.Error("putNeg with a pre-recall grant cached")
	}
	c.putList("/l", nil, grant(5))
	if _, ok := c.getList("/l"); ok {
		t.Error("putList with a pre-recall grant cached")
	}
	c.put("/a", freshInode(2), grant(10))
	if _, ok := c.get("/a"); !ok {
		t.Error("put at the applied watermark rejected")
	}
}

// TestCoherentPutInvalidGrantSkipped: in coherent mode an invalid grant is
// not cached at all — stamping it grantSeq 0 would get every such put
// silently rejected once any recall had been applied, making the path
// permanently uncacheable against a server that ever stops granting.
func TestCoherentPutInvalidGrantSkipped(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.put("/a", freshInode(1), wire.LeaseGrant{})
	if _, ok := c.get("/a"); ok {
		t.Error("coherent put with an invalid grant cached")
	}
	if c.size() != 0 {
		t.Errorf("size = %d after skipped put", c.size())
	}
	c.put("/a", freshInode(1), grant(1))
	if _, ok := c.get("/a"); !ok {
		t.Error("valid grant rejected")
	}
}

// TestPutRecallWatermarkAtomic: the applied watermark must advance while
// the recall's drops still hold c.mu, so a delayed lookup response granted
// before the recall cannot slip in between the drops and the advance and
// then be served as fresh. Pre-fix, the put could land in the
// unlock-to-CAS window and survive both the drop pass and the put guard.
func TestPutRecallWatermarkAtomic(t *testing.T) {
	for i := 0; i < 2000; i++ {
		c, _ := newCoherentCache(0)
		seq := uint64(i + 2)
		c.observe(seq)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c.applyRecalls(seq, false, []wire.Recall{{Seq: seq, Kind: wire.RecallRemoved, Path: "/r"}})
		}()
		go func() {
			defer wg.Done()
			c.put("/r", freshInode(1), grant(seq-1))
		}()
		wg.Wait()
		// appliedSeq == maxSeq now, so fresh() passes for any entry: the
		// pre-recall grant must have been dropped or rejected, never kept.
		if _, ok := c.get("/r"); ok {
			t.Fatalf("iter %d: entry granted before an applied recall served as fresh", i)
		}
	}
}

// TestSelfApplyWatermarkAtomic is the selfApply counterpart of
// TestPutRecallWatermarkAtomic: a racing put granted before the client's
// own published mutation must never survive the self-apply as servable.
func TestSelfApplyWatermarkAtomic(t *testing.T) {
	for i := 0; i < 2000; i++ {
		c, _ := newCoherentCache(0)
		seq := uint64(i + 2)
		c.applyRecalls(seq-1, false, nil) // caught up through seq-1
		c.observe(seq)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c.selfRemoved("/r", seq, 1)
		}()
		go func() {
			defer wg.Done()
			c.put("/r", freshInode(1), grant(seq-1))
		}()
		wg.Wait()
		if _, ok := c.get("/r"); ok {
			t.Fatalf("iter %d: entry granted before own mutation served as fresh", i)
		}
	}
}

// TestRecallReset: falling behind the server's bounded log drops the whole
// cache and jumps the watermark.
func TestRecallReset(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.put("/a", freshInode(1), grant(1))
	c.putNeg("/n", grant(1))
	c.putList("/l", nil, grant(1))
	c.applyRecalls(99, true, nil)
	if c.size() != 0 {
		t.Fatalf("size = %d after reset", c.size())
	}
	if d := c.detail(); d.AppliedSeq != 99 || d.MaxSeq != 99 {
		t.Fatalf("watermarks after reset: %+v", d)
	}
	// Fresh grants at the new watermark cache normally again.
	c.put("/a", freshInode(2), grant(99))
	if _, ok := c.get("/a"); !ok {
		t.Error("cache dead after reset")
	}
}

// TestSelfApplyPublished: the mutating client's own drop accounts the
// published recalls as applied, so its cache stays coherent with zero
// recall fetches.
func TestSelfApplyPublished(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.putNeg("/d/x", grant(2))
	c.putList("/d", []DirEntry{{Name: "y"}}, grant(2))
	c.observe(2)
	c.applyRecalls(2, false, nil)

	// Own mkdir of /d/x published recall seq 3.
	c.selfCreated("/d/x", 3, 1)
	if c.negHit("/d/x") {
		t.Error("own create left its negative entry")
	}
	if _, ok := c.getList("/d"); ok {
		t.Error("own create left the parent listing")
	}
	if d := c.detail(); d.AppliedSeq != 3 || d.MaxSeq != 3 {
		t.Fatalf("self-apply did not advance watermarks: %+v", d)
	}
	if _, behind := c.behind(); behind {
		t.Error("cache behind after accounting its own publication")
	}
}

// TestSelfApplySuppressed: a fully suppressed own mutation (no published
// recall) still drops the local state unconditionally.
func TestSelfApplySuppressed(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.put("/d", freshInode(1), grant(4))
	c.putList("/d", nil, grant(4))
	c.observe(4)
	c.selfRemoved("/d", 0, 0) // suppressed: no recall published
	if _, ok := c.get("/d"); ok {
		t.Error("own remove left the inode entry")
	}
	if _, ok := c.getList("/d"); ok {
		t.Error("own remove left the listing")
	}
	if d := c.detail(); d.MaxSeq != 4 {
		t.Fatalf("suppressed self-apply moved maxSeq: %+v", d)
	}
}

// TestSelfRenamed drops both sides of the rename.
func TestSelfRenamed(t *testing.T) {
	c, _ := newCoherentCache(0)
	c.put("/old", freshInode(1), grant(1))
	c.put("/old/sub", freshInode(2), grant(1))
	c.putNeg("/new", grant(1))
	c.applyRecalls(1, false, nil) // caught up through seq 1
	// Own rename published removed(/old)+created(/new) as seqs 2 and 3.
	c.selfRenamed("/old", "/new", 3, 2)
	if _, ok := c.get("/old"); ok {
		t.Error("rename source still cached")
	}
	if _, ok := c.get("/old/sub"); ok {
		t.Error("rename source subtree still cached")
	}
	if c.negHit("/new") {
		t.Error("rename destination still cached as absent")
	}
	if d := c.detail(); d.AppliedSeq != 3 {
		t.Fatalf("rename self-apply watermarks: %+v", d)
	}
}

// TestTTLModeIgnoresCoherence: with coherence off the cache never consults
// sequences — entries live for their TTL regardless of observed mutations,
// and negative/listing caching is disabled.
func TestTTLModeIgnoresCoherence(t *testing.T) {
	c := newDirCache(time.Hour, nil, 0, false, nil)
	c.put("/a", freshInode(1), wire.LeaseGrant{})
	c.observe(100) // TTL mode: observe is never called by the client, but must be harmless
	if _, ok := c.get("/a"); !ok {
		t.Error("TTL entry invalidated by a sequence observation")
	}
	c.putNeg("/n", grant(1))
	if c.negHit("/n") {
		t.Error("negative entry cached in TTL mode")
	}
	c.putList("/l", nil, grant(1))
	if _, ok := c.getList("/l"); ok {
		t.Error("listing cached in TTL mode")
	}
	if _, behind := c.behind(); behind {
		t.Error("TTL cache claims to be behind")
	}
}

// TestCoherentConcurrentPutRecallExpiry hammers put/get/negHit/recall/
// expiry concurrently; with -race this is the coherence-path counterpart of
// TestCacheStressOverlappingSubtrees. Afterwards a put granted at the
// applied watermark must be servable.
func TestCoherentConcurrentPutRecallExpiry(t *testing.T) {
	var ns atomic.Int64
	base := time.Unix(1000, 0)
	clock := func() time.Time { return base.Add(time.Duration(ns.Load())) }
	c := newDirCache(0, clock, 128, true, nil)

	var srvSeq atomic.Uint64
	paths := []string{"/s/a", "/s/b", "/s/a/x", "/s/c"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 10; w++ {
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
				switch w % 5 {
				case 0: // lookup responses with current grants
					c.put(p, freshInode(uint32(w)), grant(srvSeq.Load()))
					c.putNeg(p+"/gone", grant(srvSeq.Load()))
				case 1: // reads
					c.get(p)
					c.negHit(p + "/gone")
					c.getList(p)
				case 2: // server-side mutations publishing recalls
					s := srvSeq.Add(1)
					c.observe(s)
					c.applyRecalls(s, false, []wire.Recall{{Seq: s, Kind: wire.RecallRemoved, Path: p}})
				case 3: // lease expiry pressure
					ns.Add(int64(DefaultLease) / 50)
					c.get(p)
				case 4: // own mutations, sometimes suppressed
					if i%2 == 0 {
						s := srvSeq.Add(1)
						c.observe(s)
						c.selfCreated(p, s, 1)
					} else {
						c.selfPatched(p, 0, 0)
					}
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	final := srvSeq.Load()
	c.applyRecalls(final, false, nil)
	c.put("/s/final", freshInode(7), grant(final))
	if _, ok := c.get("/s/final"); !ok {
		t.Fatal("entry granted at the applied watermark not served after stress")
	}
	if d := c.detail(); d.AppliedSeq > d.MaxSeq {
		t.Fatalf("appliedSeq %d ran ahead of maxSeq %d", d.AppliedSeq, d.MaxSeq)
	}
}

// TestCacheMetricsCounters: the Prometheus counters mirror the cache's
// internal tallies and unregister cleanly.
func TestCacheMetricsCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	label := telemetry.L("client", "test")
	met := newCacheMetrics(reg, label)
	var ns atomic.Int64
	clock := func() time.Time { return time.Unix(1000, 0).Add(time.Duration(ns.Load())) }
	c := newDirCache(0, clock, 2, true, met)

	c.get("/miss") // miss
	c.put("/a", freshInode(1), grant(1))
	c.get("/a") // hit
	c.putNeg("/n", grant(1))
	c.negHit("/n") // negative hit
	c.putList("/l", nil, grant(1))
	c.getList("/l") // listing hit
	c.put("/b", freshInode(2), grant(1))
	c.put("/c", freshInode(3), grant(1)) // cap 2: evicts
	c.observe(5)
	c.get("/c") // stale miss
	c.applyRecalls(5, false, []wire.Recall{{Seq: 5, Kind: wire.RecallPatched, Path: "/c"}})

	d := c.detail()
	checks := []struct {
		name string
		want uint64
	}{
		{MetricDirCacheHits, d.Hits},
		{MetricDirCacheMisses, d.Misses},
		{MetricDirCacheEvictions, d.Evictions},
		{MetricDirCacheNegHits, d.NegHits},
		{MetricDirCacheListHits, d.ListHits},
		{MetricDirCacheStale, d.StaleMisses},
		{MetricDirCacheRecalls, d.RecallsApplied},
	}
	for _, ck := range checks {
		if got := reg.Counter(ck.name, label).Load(); got != ck.want || ck.want == 0 {
			t.Errorf("%s = %d, want %d (nonzero)", ck.name, got, ck.want)
		}
	}
	met.unregister(reg, label)
	for _, ck := range checks {
		if got := reg.Counter(ck.name, label).Load(); got != 0 {
			t.Errorf("%s = %d after unregister", ck.name, got)
		}
	}
}
