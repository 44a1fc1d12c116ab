package client

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/fspath"
	"locofs/internal/layout"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// dirCache is the client directory metadata cache (§3.2.2, DESIGN.md §14).
// It holds directory inodes, negative entries (paths known absent) and
// complete DMS subdirectory listings. A hit saves the DMS round trip on
// every file operation in a cached directory; a negative hit saves the
// round trip of a lookup that would only return ENOENT.
//
// In coherent mode (the default) every entry carries the DMS recall
// sequence it was granted at, and the cache tracks two watermarks: maxSeq,
// the highest sequence seen stamped on any response header, and appliedSeq,
// the highest sequence whose recall entries have been applied. An entry is
// served only while it is provably unaffected by unseen recalls —
// grantSeq >= maxSeq (granted after every observed mutation) or
// appliedSeq >= maxSeq (every observed recall already applied). Otherwise
// the entry is kept but the access degrades to a miss; the next DMS round
// trip piggybacks an OpLeaseRecall fetch and drops exactly the directories
// that changed. TTL-only mode (DisableLeaseCoherence) skips all of it and
// trusts entries for the configured lease, the paper's original semantics.
//
// The three kinds share one entry type, one table each (tabs, indexed by
// kind) and one lookup and one store; a kind differs only in which payload
// field it fills and which counter a hit bumps.
//
// The cache is bounded: at most max entries (of all three kinds) live at
// once, and on overflow the oldest are evicted first. Because entries of
// one kind get the same lease, insertion order approximates expiry order,
// so a simple FIFO of insertion records doubles as an eviction queue — no
// heap needed. Records whose entry was re-put or invalidated since are
// stale and skipped lazily.
type dirCache struct {
	mu    sync.RWMutex
	lease time.Duration
	now   func() time.Time

	// coherent selects lease-coherent mode: grants, recalls, watermarks, and
	// with them negative (ENOENT) and listing entries, which TTL mode cannot
	// keep honest.
	coherent bool

	tabs [numKinds]map[string]cacheEntry // by kind: recInode, recNeg, recList

	// tree indexes every path holding an entry, and every ancestor of one,
	// under its parent, so that dropping a subtree visits only that subtree.
	// setLocked and delLocked, the only writers of tabs, keep it.
	tree map[string]pathNode
	walk []string // dropTreeLocked's scratch, reused under mu

	max  int       // total entry cap; <= 0 means unbounded
	fifo []fifoRec // insertion order; stale records skipped lazily
	seq  uint64    // ties entries to their live fifo record

	// srcs holds one watermark pair per recall source. Each DMS partition
	// runs its own lease table with its own recall log, so the sequences
	// are comparable only within one partition and the cache keys its
	// watermarks by partition id (a lone DMS is partition 0). Entries carry
	// the source they were granted by, and freshness is judged against that
	// source's watermarks alone — sound because the partition cut rules
	// guarantee every mutation that can invalidate a path's cached state is
	// published by the partition that granted it (seed updates republish
	// ancestor changes locally; straddling renames are refused).
	//
	// Per source: maxSeq is the highest recall sequence observed on any
	// response header, appliedSeq the highest sequence fully applied to this
	// cache. appliedSeq <= maxSeq always; they are equal when the cache is
	// provably coherent with that source.
	srcMu sync.RWMutex
	srcs  map[uint32]*srcMarks

	hits        [numKinds]atomic.Uint64 // by kind
	misses      atomic.Uint64
	staleMisses atomic.Uint64
	evictions   atomic.Uint64
	recalls     atomic.Uint64

	met *cacheMetrics // nil in direct-constructed tests
}

// srcMarks is one recall source's watermark pair (see dirCache.srcs).
type srcMarks struct {
	maxSeq     atomic.Uint64
	appliedSeq atomic.Uint64
}

// srcAny is the source wildcard for unconditional drops: invalidations that
// must hit entries regardless of which partition granted them.
const srcAny = ^uint32(0)

// cacheEntry is one cached fact of any kind: an inode (recInode), a known
// absence (recNeg, no payload) or a complete subdirectory listing (recList).
type cacheEntry struct {
	inode    layout.DirInode
	ents     []DirEntry
	expires  time.Time
	seq      uint64
	grantSeq uint64
	src      uint32
}

// hitBy reports whether a recall published by src at seq invalidates e:
// granted before it, by that source (srcAny matches every source).
func (e cacheEntry) hitBy(src uint32, seq uint64) bool {
	return e.grantSeq < seq && (src == srcAny || e.src == src)
}

// Entry kinds: which table an entry, or a fifo record's entry, lives in.
const (
	recInode = iota
	recNeg
	recList
	numKinds
)

// pathNode is one path's place in the tree index: how many kinds of entry
// the path holds, and its children that hold entries or have descendants
// that do.
type pathNode struct {
	held uint8
	kids map[string]struct{}
}

// parentOf returns the path the tree index files p under; the root, and a
// path with no slash, have none.
func parentOf(p string) (string, bool) {
	i := strings.LastIndexByte(p, '/')
	switch {
	case i < 0 || p == "/":
		return "", false
	case i == 0:
		return "/", true
	}
	return p[:i], true
}

type fifoRec struct {
	path string
	seq  uint64
	kind uint8
}

// DefaultLease is the paper's default client-cache lease.
const DefaultLease = 30 * time.Second

// DefaultCacheEntries bounds the directory cache when the configuration
// leaves the cap zero: enough for a wide working set, small enough that a
// metadata-heavy client cannot grow without limit.
const DefaultCacheEntries = 64 << 10

// MetricDirCacheSize is the gauge reporting a client's live directory-cache
// entry count (inodes + negative entries + listings).
const MetricDirCacheSize = "locofs_client_dircache_entries"

// Directory-cache counters, labeled client=<id> like every client series.
const (
	MetricDirCacheHits      = "locofs_client_dircache_hits_total"
	MetricDirCacheMisses    = "locofs_client_dircache_misses_total"
	MetricDirCacheEvictions = "locofs_client_dircache_evictions_total"
	MetricDirCacheNegHits   = "locofs_client_dircache_neg_hits_total"
	MetricDirCacheListHits  = "locofs_client_dircache_list_hits_total"
	MetricDirCacheStale     = "locofs_client_dircache_stale_total"
	MetricDirCacheRecalls   = "locofs_client_dircache_recalls_total"
)

// cacheMetrics holds the cache's counter handles; nil-receiver-safe so the
// cache can run without a registry in unit tests.
type cacheMetrics struct {
	hits                              [numKinds]*telemetry.Counter // by kind
	misses, evictions, stale, recalls *telemetry.Counter
}

func newCacheMetrics(reg *telemetry.Registry, label telemetry.Label) *cacheMetrics {
	return &cacheMetrics{
		hits: [numKinds]*telemetry.Counter{
			recInode: reg.Counter(MetricDirCacheHits, label),
			recNeg:   reg.Counter(MetricDirCacheNegHits, label),
			recList:  reg.Counter(MetricDirCacheListHits, label),
		},
		misses:    reg.Counter(MetricDirCacheMisses, label),
		evictions: reg.Counter(MetricDirCacheEvictions, label),
		stale:     reg.Counter(MetricDirCacheStale, label),
		recalls:   reg.Counter(MetricDirCacheRecalls, label),
	}
}

// unregister removes the counters from reg so shared registries don't
// accumulate dead per-client series.
func (m *cacheMetrics) unregister(reg *telemetry.Registry, label telemetry.Label) {
	if m == nil {
		return
	}
	for _, name := range []string{
		MetricDirCacheHits, MetricDirCacheMisses, MetricDirCacheEvictions,
		MetricDirCacheNegHits, MetricDirCacheListHits,
		MetricDirCacheStale, MetricDirCacheRecalls,
	} {
		reg.Unregister(name, label)
	}
}

func newDirCache(lease time.Duration, now func() time.Time, maxEntries int, coherent bool, met *cacheMetrics) *dirCache {
	if lease <= 0 {
		lease = DefaultLease
	}
	if now == nil {
		now = time.Now
	}
	if maxEntries == 0 {
		maxEntries = DefaultCacheEntries
	}
	c := &dirCache{
		lease:    lease,
		now:      now,
		coherent: coherent,
		srcs:     make(map[uint32]*srcMarks),
		tree:     make(map[string]pathNode),
		max:      maxEntries,
		met:      met,
	}
	for k := range c.tabs {
		c.tabs[k] = make(map[string]cacheEntry)
	}
	return c
}

// marks returns source src's watermark pair, creating it on first use.
func (c *dirCache) marks(src uint32) *srcMarks {
	c.srcMu.RLock()
	m := c.srcs[src]
	c.srcMu.RUnlock()
	if m != nil {
		return m
	}
	c.srcMu.Lock()
	if m = c.srcs[src]; m == nil {
		m = &srcMarks{}
		c.srcs[src] = m
	}
	c.srcMu.Unlock()
	return m
}

// marksIfAny returns src's watermark pair without creating it.
func (c *dirCache) marksIfAny(src uint32) *srcMarks {
	c.srcMu.RLock()
	m := c.srcs[src]
	c.srcMu.RUnlock()
	return m
}

// observeFrom records a recall sequence seen on a response header from
// source src. Monotonic per source.
func (c *dirCache) observeFrom(src uint32, seq uint64) {
	m := c.marks(src)
	for {
		cur := m.maxSeq.Load()
		if seq <= cur || m.maxSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// behindFrom reports whether the cache has observed recalls from source src
// it has not applied, returning that source's applied watermark.
func (c *dirCache) behindFrom(src uint32) (since uint64, ok bool) {
	if !c.coherent {
		return 0, false
	}
	m := c.marksIfAny(src)
	if m == nil {
		return 0, false
	}
	applied := m.appliedSeq.Load()
	return applied, applied < m.maxSeq.Load()
}

// fresh reports whether an entry granted by src at gseq may be served:
// either it postdates every mutation observed from that source, or the
// cache has applied every recall observed from it (so the entry surviving
// proves it untouched).
func (c *dirCache) fresh(src uint32, gseq uint64) bool {
	if !c.coherent {
		return true
	}
	m := c.marksIfAny(src)
	if m == nil {
		return true
	}
	max := m.maxSeq.Load()
	return gseq >= max || m.appliedSeq.Load() >= max
}

// lookup returns path's entry of the given kind if its lease is valid and it
// is coherent with every recall observed from its source, counting the hit.
// A miss returns the zero entry: an expired or stale payload never leaves.
func (c *dirCache) lookup(kind int, path string) (cacheEntry, bool) {
	c.mu.RLock()
	e, ok := c.tabs[kind][path]
	c.mu.RUnlock()
	if !ok {
		return cacheEntry{}, false
	}
	if c.now().After(e.expires) {
		// Expired: evict — but only the entry we actually saw. Between
		// dropping the read lock and taking the write lock a concurrent put
		// may have installed a fresh entry under the same path; deleting
		// blindly would evict it and turn a valid lease into a spurious
		// miss for every subsequent lookup. The seq check deletes only the
		// exact expired entry.
		c.mu.Lock()
		if cur, still := c.tabs[kind][path]; still && cur.seq == e.seq {
			c.delLocked(kind, path)
		}
		c.mu.Unlock()
		return cacheEntry{}, false
	}
	if !c.fresh(e.src, e.grantSeq) {
		// Unexpired but possibly invalidated by a recall not yet applied:
		// degrade to a miss, keep the entry — it may prove untouched once
		// the recalls are fetched and applied.
		c.staleMisses.Add(1)
		if c.met != nil {
			c.met.stale.Inc()
		}
		return cacheEntry{}, false
	}
	c.hits[kind].Add(1)
	if c.met != nil {
		c.met.hits[kind].Inc()
	}
	return e, true
}

// get returns the cached inode for path. It alone counts misses: every
// resolve starts here, and negHit and getList only ever add their own kind
// of hit on top.
func (c *dirCache) get(path string) (layout.DirInode, bool) {
	e, ok := c.lookup(recInode, path)
	if !ok {
		c.misses.Add(1)
		if c.met != nil {
			c.met.misses.Inc()
		}
		return nil, false
	}
	return e.inode, true
}

// negHit reports whether path is cached as known-absent.
func (c *dirCache) negHit(path string) bool {
	_, ok := c.lookup(recNeg, path)
	return ok
}

// getList returns the cached complete subdirectory listing for path. The
// returned slice is shared; callers must not mutate it.
func (c *dirCache) getList(path string) ([]DirEntry, bool) {
	e, ok := c.lookup(recList, path)
	return e.ents, ok
}

// leaseFor returns the entry lifetime and grant sequence for a server grant:
// exactly the granted lease in coherent mode, the configured one in TTL mode.
func (c *dirCache) leaseFor(g wire.LeaseGrant) (time.Duration, uint64) {
	if !c.coherent || !g.Valid() {
		return c.lease, 0
	}
	return time.Duration(g.DurMS) * time.Millisecond, g.Seq
}

// store caches e — its payload set by the caller — as path's entry of the given
// kind under source src's grant g, evicting the oldest entries if the cap is
// exceeded. Negative and listing entries exist only in coherent mode, which
// alone can keep them honest. In coherent mode an invalid grant is not cached
// at all: a sequence-less entry cannot be matched against recalls, and
// stamping it grantSeq 0 would get it silently rejected below as soon as any
// recall had been applied — a coherent client requires a lease-granting
// server on every OK lookup (TTL-only mode caches inodes under the configured
// lease as before).
func (c *dirCache) store(kind int, src uint32, path string, g wire.LeaseGrant, e cacheEntry) {
	if (kind != recInode && !c.coherent) || (c.coherent && !g.Valid()) {
		return
	}
	dur, gseq := c.leaseFor(g)
	e.expires, e.grantSeq, e.src = c.now().Add(dur), gseq, src
	var m *srcMarks
	if c.coherent {
		m = c.marks(src)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m != nil && gseq < m.appliedSeq.Load() {
		// A recall newer than this grant has already been applied; caching
		// the value could resurrect an entry that recall dropped.
		return
	}
	c.seq++
	e.seq = c.seq
	c.setLocked(kind, path, e)
	c.fifo = append(c.fifo, fifoRec{path: path, seq: c.seq, kind: uint8(kind)})
	c.evictLocked()
	c.compactLocked()
}

// putFrom caches an inode granted by recall source src under path.
func (c *dirCache) putFrom(src uint32, path string, inode layout.DirInode, g wire.LeaseGrant) {
	c.store(recInode, src, path, g, cacheEntry{inode: inode.Clone()})
}

// putNegFrom caches an ENOENT result under source src's negative-entry grant.
func (c *dirCache) putNegFrom(src uint32, path string, g wire.LeaseGrant) {
	c.store(recNeg, src, path, g, cacheEntry{})
}

// putListFrom caches a complete subdirectory listing under source src's
// listing grant.
func (c *dirCache) putListFrom(src uint32, path string, ents []DirEntry, g wire.LeaseGrant) {
	c.store(recList, src, path, g, cacheEntry{ents: ents})
}

// setLocked stores path's entry of one kind, filing a new path in the tree
// index. Caller holds c.mu.
func (c *dirCache) setLocked(kind int, path string, e cacheEntry) {
	if _, ok := c.tabs[kind][path]; !ok {
		n, indexed := c.tree[path]
		n.held++
		c.tree[path] = n
		for child := path; !indexed; {
			parent, ok := parentOf(child)
			if !ok {
				break
			}
			var pn pathNode
			pn, indexed = c.tree[parent]
			if pn.kids == nil {
				pn.kids = make(map[string]struct{})
			}
			pn.kids[child] = struct{}{}
			c.tree[parent] = pn
			child = parent
		}
	}
	c.tabs[kind][path] = e
}

// delLocked deletes path's entry of one kind, if any, and unfiles from the
// tree index each node left with no entry and no children. Caller holds
// c.mu.
func (c *dirCache) delLocked(kind int, path string) {
	if _, ok := c.tabs[kind][path]; !ok {
		return
	}
	delete(c.tabs[kind], path)
	n := c.tree[path]
	n.held--
	c.tree[path] = n
	for n.held == 0 && len(n.kids) == 0 {
		delete(c.tree, path)
		parent, ok := parentOf(path)
		if !ok {
			return
		}
		n = c.tree[parent]
		delete(n.kids, path)
		path = parent
	}
}

func (c *dirCache) liveLocked() int {
	return len(c.tabs[recInode]) + len(c.tabs[recNeg]) + len(c.tabs[recList])
}

// evictLocked enforces the entry cap, oldest-first. Caller holds c.mu.
func (c *dirCache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for c.liveLocked() > c.max && len(c.fifo) > 0 {
		rec := c.fifo[0]
		c.fifo = c.fifo[1:]
		if c.dropRecLocked(rec) {
			c.evictions.Add(1)
			if c.met != nil {
				c.met.evictions.Inc()
			}
		}
	}
}

// dropRecLocked deletes the entry a fifo record points at, if the record is
// still live (the entry was not re-put or invalidated since).
func (c *dirCache) dropRecLocked(rec fifoRec) bool {
	if !c.recLiveLocked(rec) {
		return false
	}
	c.delLocked(int(rec.kind), rec.path)
	return true
}

func (c *dirCache) recLiveLocked(rec fifoRec) bool {
	e, ok := c.tabs[rec.kind][rec.path]
	return ok && e.seq == rec.seq
}

// compactLocked trims the fifo: re-puts and invalidations strand stale
// records; compact once they dominate, so the queue stays proportional to
// the live set. Caller holds c.mu.
func (c *dirCache) compactLocked() {
	if len(c.fifo) > 2*c.liveLocked()+16 {
		live := c.fifo[:0]
		for _, rec := range c.fifo {
			if c.recLiveLocked(rec) {
				live = append(live, rec)
			}
		}
		c.fifo = live
	}
}

// applyRecallsFrom applies a recall log segment fetched from source src:
// every entry drops exactly the cached state its mutation could have
// invalidated, skipping entries granted at or after the recall (they
// postdate the mutation). A reset — the client fell behind the server's
// bounded log — drops everything. The applied watermark advances to cur.
// Drops are scoped to entries granted by that source: a partition's recall
// log describes exactly the mutations of its own key range (including seed
// updates republished locally), so entries granted elsewhere are untouched
// — and their grant sequences would not be comparable anyway.
func (c *dirCache) applyRecallsFrom(src uint32, cur uint64, reset bool, entries []wire.Recall) {
	if !c.coherent {
		return
	}
	c.observeFrom(src, cur)
	m := c.marks(src)
	c.mu.Lock()
	if reset {
		for k := range c.tabs {
			clear(c.tabs[k])
		}
		clear(c.tree)
		c.fifo = c.fifo[:0]
		c.recalls.Add(1)
		if c.met != nil {
			c.met.recalls.Inc()
		}
	} else {
		for _, r := range entries {
			c.applyOneLocked(src, r.Seq, r.Kind, r.Path)
		}
		c.recalls.Add(uint64(len(entries)))
		if c.met != nil {
			c.met.recalls.Add(uint64(len(entries)))
		}
	}
	// Advance the applied watermark while still holding c.mu: store validates
	// gseq < appliedSeq under the same lock, so a delayed
	// lookup response granted before these recalls cannot slip in between
	// the drops above and the watermark advance and then be served as fresh.
	for {
		a := m.appliedSeq.Load()
		if cur <= a || m.appliedSeq.CompareAndSwap(a, cur) {
			break
		}
	}
	c.mu.Unlock()
}

// applyOneLocked performs one recall's drops. Entries granted at or after
// seq by the same source survive: their grant postdates the mutation.
// src == srcAny drops regardless of granting source. Caller holds c.mu.
func (c *dirCache) applyOneLocked(src uint32, seq uint64, kind wire.RecallKind, path string) {
	switch kind {
	case wire.RecallPatched:
		// In-place attribute change: only the exact inode entry is stale.
		c.dropOneLocked(recInode, src, path, seq)
	case wire.RecallCreated:
		// The path now exists: negative entries at/under it are wrong (a
		// rename can materialize a whole subtree), and listings of it and
		// of its parent gained an entry.
		c.dropTreeLocked(src, path, seq, recNeg, recList)
	case wire.RecallRemoved:
		// The subtree is gone: inodes and listings at/under it are stale,
		// and the parent's listing lost an entry. Negative entries are
		// dropped too (over-broad but cheap and safe).
		c.dropTreeLocked(src, path, seq, recInode, recNeg, recList)
	}
	if kind != wire.RecallPatched && path != "/" {
		parent, _ := fspath.Split(path)
		c.dropOneLocked(recList, src, parent, seq)
	}
}

// dropOneLocked drops path's entry of one kind if a recall by src at seq
// invalidates it. Caller holds c.mu.
func (c *dirCache) dropOneLocked(kind int, src uint32, path string, seq uint64) {
	if e, ok := c.tabs[kind][path]; ok && e.hitBy(src, seq) {
		c.delLocked(kind, path)
	}
}

// dropTreeLocked drops cached state of the given kinds at and under path,
// honoring the grant-sequence guard and the source scope. It walks the tree
// index from path, so it costs the subtree, not the cache. Caller holds c.mu.
func (c *dirCache) dropTreeLocked(src uint32, path string, seq uint64, kinds ...int) {
	if _, ok := c.tree[path]; !ok {
		return
	}
	walk := append(c.walk[:0], path)
	for i := 0; i < len(walk); i++ {
		for kid := range c.tree[walk[i]].kids {
			walk = append(walk, kid)
		}
	}
	for _, p := range walk {
		for _, k := range kinds {
			c.dropOneLocked(k, src, p, seq)
		}
	}
	if cap(walk) > 1024 {
		walk = nil // a wide drop must not pin its scratch
	}
	c.walk = walk[:0]
}

// selfOp is one drop of a client's own mutation (see selfApply).
type selfOp struct {
	kind wire.RecallKind
	path string
}

// selfApply applies the client's own mutation to its cache using the same
// drop rules a recall would, and — when the mutation's response carried a
// publication trailer (last, n) — accounts the recalls as applied, so the
// mutating client never pays a recall fetch for its own writes. last == 0
// (TTL mode, or a fully suppressed mutation) drops unconditionally.
func (c *dirCache) selfApply(src uint32, last uint64, n uint32, ops ...selfOp) {
	guard := last
	guardSrc := src
	if guard == 0 {
		guard = ^uint64(0)
		guardSrc = srcAny
	}
	if last > 0 {
		c.observeFrom(src, last)
	}
	m := c.marks(src)
	c.mu.Lock()
	for _, op := range ops {
		c.applyOneLocked(guardSrc, guard, op.kind, op.path)
	}
	if last > 0 && n > 0 {
		// The published seqs last-n+1..last are exactly this mutation's;
		// if everything before them was applied, they now are too. Advanced
		// under c.mu for the same reason as applyRecalls: the put-side
		// gseq < appliedSeq guard must be atomic with the drops above.
		m.appliedSeq.CompareAndSwap(last-uint64(n), last)
	}
	c.mu.Unlock()
}

func (c *dirCache) selfCreatedFrom(src uint32, path string, last uint64, n uint32) {
	c.selfApply(src, last, n, selfOp{wire.RecallCreated, path})
}

func (c *dirCache) selfRemovedFrom(src uint32, path string, last uint64, n uint32) {
	c.selfApply(src, last, n, selfOp{wire.RecallRemoved, path})
}

func (c *dirCache) selfPatchedFrom(src uint32, path string, last uint64, n uint32) {
	c.selfApply(src, last, n, selfOp{wire.RecallPatched, path})
}

func (c *dirCache) selfRenamedFrom(src uint32, oldPath, newPath string, last uint64, n uint32) {
	// Mirror the published removed(old)+created(new), plus an entry drop
	// under the new path (matches the legacy invalidateSubtree there).
	c.selfApply(src, last, n,
		selfOp{wire.RecallRemoved, oldPath},
		selfOp{wire.RecallRemoved, newPath},
		selfOp{wire.RecallCreated, newPath})
}

// accountPub folds a mutation's publication trailer into source src's
// watermarks without performing any drops — used when the caller already
// invalidated the affected paths unconditionally (cross-partition renames,
// whose destination-side recalls are published by a different source).
func (c *dirCache) accountPub(src uint32, last uint64, n uint32) {
	if !c.coherent || last == 0 {
		return
	}
	c.observeFrom(src, last)
	m := c.marks(src)
	c.mu.Lock()
	if n > 0 {
		m.appliedSeq.CompareAndSwap(last-uint64(n), last)
	}
	c.mu.Unlock()
}

// invalidate drops path from the cache (every kind, unconditionally).
func (c *dirCache) invalidate(path string) {
	c.mu.Lock()
	for k := range c.tabs {
		c.delLocked(k, path)
	}
	c.mu.Unlock()
}

// invalidateSubtree drops path and everything beneath it, unconditionally.
func (c *dirCache) invalidateSubtree(path string) {
	c.mu.Lock()
	c.dropTreeLocked(srcAny, path, ^uint64(0), recInode, recNeg, recList)
	c.mu.Unlock()
}

// stats returns inode hit/miss counts.
func (c *dirCache) stats() (hits, misses uint64) {
	return c.hits[recInode].Load(), c.misses.Load()
}

// evicted returns the number of entries dropped by the size cap.
func (c *dirCache) evicted() uint64 { return c.evictions.Load() }

// size returns the number of cached entries of all kinds.
func (c *dirCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.liveLocked()
}

// CacheDetail is a point-in-time snapshot of the directory cache's
// counters, occupancy and coherence watermarks.
type CacheDetail struct {
	Hits, NegHits, ListHits      uint64
	Misses, StaleMisses          uint64
	Evictions, RecallsApplied    uint64
	Entries, Negatives, Listings int
	MaxSeq, AppliedSeq           uint64
}

func (c *dirCache) detail() CacheDetail {
	c.mu.RLock()
	entries, negs, lists := len(c.tabs[recInode]), len(c.tabs[recNeg]), len(c.tabs[recList])
	c.mu.RUnlock()
	var maxSeq, appliedSeq uint64
	if m := c.marksIfAny(0); m != nil {
		maxSeq, appliedSeq = m.maxSeq.Load(), m.appliedSeq.Load()
	}
	return CacheDetail{
		Hits:           c.hits[recInode].Load(),
		NegHits:        c.hits[recNeg].Load(),
		ListHits:       c.hits[recList].Load(),
		Misses:         c.misses.Load(),
		StaleMisses:    c.staleMisses.Load(),
		Evictions:      c.evictions.Load(),
		RecallsApplied: c.recalls.Load(),
		Entries:        entries,
		Negatives:      negs,
		Listings:       lists,
		MaxSeq:         maxSeq,
		AppliedSeq:     appliedSeq,
	}
}
