package dms

import (
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/obs"
	"locofs/internal/wire"
)

// Lease coherence (DESIGN.md §14). The DMS grants a read lease alongside
// every lookup/readdir response: "cache this for DurMS; it was valid as of
// recall sequence Seq". The lease table remembers which paths have a
// possibly-live grant outstanding, and when a mutation touches such a path
// it *publishes* a recall — an entry in a bounded log plus a bump of the
// recall sequence that rides in every response header (wire.Msg.Lease).
// Clients compare the stamped sequence against what they have applied and,
// when behind, fetch the missed entries with OpLeaseRecall (piggybacked on
// their next lookup batch) to drop exactly the directories that changed.
//
// The crucial property is *suppression*: a mutation of a path nobody holds
// a grant for publishes nothing and leaves the sequence untouched, so a
// create-heavy workload over uncached paths causes zero cache churn across
// the client population. Suppression is a few map lookups under the table
// lock, taken only inside mutations (which already hold the server's write
// lock). When the grants map would exceed its bound the table enters
// overflow mode — publish everything, suppress nothing — until a full
// grant horizon passes with room to spare: strictly more recalls than
// necessary, never fewer.

// DefaultLeaseDur is the lease granted to clients when Options.LeaseDur is
// zero — the paper's §3.2.2 30-second client cache lease, now coherent.
const DefaultLeaseDur = 30 * time.Second

// defaultMaxGrants bounds the grants map; defaultRecallLog bounds the
// recall log (clients further behind get a reset instead of a diff).
const (
	defaultMaxGrants = 64 << 10
	defaultRecallLog = 1024
)

// pubResult describes what a mutation published: the last sequence it
// produced and how many entries (0 = fully suppressed). Mutation responses
// carry it so the mutating client — which already invalidates its own
// cache locally — can account for its own recalls without a fetch.
type pubResult struct {
	Last uint64
	N    uint32
}

// grantRec records, per path, until when some client may hold a lease on
// the path's inode, on its absence (negative entry), or on its subdir
// listing. Zero means never granted.
type grantRec struct {
	inode int64
	neg   int64
	list  int64
}

type leaseTable struct {
	dur     time.Duration // client-visible lease duration
	horizon time.Duration // how long a grant is assumed live: one lease plus one of slack
	now     func() int64

	mu            sync.Mutex
	grants        map[string]*grantRec
	maxGrants     int
	overflowUntil int64 // while now < this, publish everything
	seq           uint64
	log           []wire.Recall // contiguous seqs, bounded to logCap
	logCap        int
	suppressed    uint64 // mutations that published nothing (introspection)
	granted       uint64 // lease grants recorded (inode + neg + list)

	// obs (nil ok) receives flight-recorder events: one KindLeaseRecall
	// per published recall and one KindLeaseOverflow per overflow-mode
	// entry. The journal's append lock is a leaf, so emitting under lt.mu
	// (itself under the server's write lock) cannot deadlock.
	obs *obs.Handle

	pub atomic.Uint64 // mirror of seq for lock-free response stamping
}

func newLeaseTable(dur time.Duration, now func() int64) *leaseTable {
	if dur <= 0 {
		dur = DefaultLeaseDur
	}
	return &leaseTable{
		dur:       dur,
		horizon:   dur * 2,
		now:       now,
		grants:    make(map[string]*grantRec),
		maxGrants: defaultMaxGrants,
		logCap:    defaultRecallLog,
	}
}

// Seq returns the published recall sequence — the value stamped on every
// response header via rpc.Server.SetLeaseFunc.
func (lt *leaseTable) Seq() uint64 { return lt.pub.Load() }

func (lt *leaseTable) durMS() uint32 {
	ms := lt.dur.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	if ms > 1<<31 {
		ms = 1 << 31
	}
	return uint32(ms)
}

// rec returns the record for path, creating it if needed. Caller holds
// lt.mu. In overflow mode nothing is recorded (everything publishes anyway)
// but the overflow window is pushed out past the new grant's horizon.
func (lt *leaseTable) rec(path string, t int64) *grantRec {
	if lt.overflowUntil > t {
		if until := t + int64(lt.horizon); until > lt.overflowUntil {
			lt.overflowUntil = until
		}
		return nil
	}
	g, ok := lt.grants[path]
	if !ok {
		if len(lt.grants) >= lt.maxGrants {
			lt.sweep(t)
		}
		if len(lt.grants) >= lt.maxGrants {
			// Still over bound after dropping expired records: give up on
			// per-path tracking for one horizon and publish everything.
			lt.grants = make(map[string]*grantRec)
			lt.overflowUntil = t + int64(lt.horizon)
			lt.obs.Emit(obs.KindLeaseOverflow, "", 0, int64(lt.maxGrants), "grants map over bound; suppression off for one horizon")
			return nil
		}
		g = &grantRec{}
		lt.grants[path] = g
	}
	return g
}

// sweep drops records whose every horizon passed. Caller holds lt.mu.
func (lt *leaseTable) sweep(t int64) {
	for p, g := range lt.grants {
		if g.inode <= t && g.neg <= t && g.list <= t {
			delete(lt.grants, p)
		}
	}
}

// grantChain records inode grants for every path of a lookup chain and
// returns the grant trailer for the response. Must be called while holding
// the server's read lock, so the recorded grant and the returned data are
// atomic with respect to mutations (which hold the write lock).
func (lt *leaseTable) grantChain(paths []PathInode) wire.LeaseGrant {
	t := lt.now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for i := range paths {
		if g := lt.rec(paths[i].Path, t); g != nil {
			g.inode = t + int64(lt.horizon)
		}
		lt.granted++
	}
	return wire.LeaseGrant{Seq: lt.seq, DurMS: lt.durMS()}
}

// grantNeg records a negative-entry grant for a path that resolved ENOENT.
func (lt *leaseTable) grantNeg(path string) wire.LeaseGrant {
	t := lt.now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if g := lt.rec(path, t); g != nil {
		g.neg = t + int64(lt.horizon)
	}
	lt.granted++
	return wire.LeaseGrant{Seq: lt.seq, DurMS: lt.durMS()}
}

// grantList records a subdir-listing grant for path (the listing was
// returned whole, so the client may cache it).
func (lt *leaseTable) grantList(path string) wire.LeaseGrant {
	t := lt.now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if g := lt.rec(path, t); g != nil {
		g.list = t + int64(lt.horizon)
	}
	lt.granted++
	return wire.LeaseGrant{Seq: lt.seq, DurMS: lt.durMS()}
}

// live* report whether a grant of the given flavor may still be held.
// Caller holds lt.mu.
func (lt *leaseTable) liveInode(path string, t int64) bool {
	g := lt.grants[path]
	return g != nil && g.inode > t
}

func (lt *leaseTable) liveNeg(path string, t int64) bool {
	g := lt.grants[path]
	return g != nil && g.neg > t
}

func (lt *leaseTable) liveList(path string, t int64) bool {
	g := lt.grants[path]
	return g != nil && g.list > t
}

// publish appends one recall entry. Caller holds lt.mu.
func (lt *leaseTable) publish(kind wire.RecallKind, path string) {
	lt.seq++
	lt.log = append(lt.log, wire.Recall{Seq: lt.seq, Kind: kind, Path: path})
	if len(lt.log) > lt.logCap {
		lt.log = append(lt.log[:0], lt.log[len(lt.log)-lt.logCap:]...)
	}
	lt.pub.Store(lt.seq)
	lt.obs.Emit(obs.KindLeaseRecall, "", 0, int64(lt.seq), path)
}

// startTerm puts ver, the map version under which this replica was promoted
// to leader, into the sequence's high bits, the way the partition layer
// folds it into transaction ids, and empties the recall log. A promoted
// leader holds none of its predecessor's grants, so it would publish no
// recall for them; instead its first response puts every client's entries
// from this partition behind the observed sequence, and the client's recall
// fetch, whose since predates the log, gets a reset that drops them. 24
// version bits wrap after 16M map pushes; 40 sequence bits never wrap in
// practice.
func (lt *leaseTable) startTerm(ver uint64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if base := (ver & (1<<24 - 1)) << 40; base > lt.seq {
		lt.seq = base
		lt.log = lt.log[:0]
		lt.pub.Store(base)
	}
}

// bumpCreated handles a directory creation: clients may hold a negative
// entry for the exact path or the parent's listing; nothing else changes.
func (lt *leaseTable) bumpCreated(path, parent string) pubResult {
	t := lt.now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.overflowUntil > t || lt.liveNeg(path, t) || lt.liveList(parent, t) {
		lt.publish(wire.RecallCreated, path)
		return pubResult{Last: lt.seq, N: 1}
	}
	lt.suppressed++
	return pubResult{}
}

// bumpRemoved handles a directory removal: clients may hold the path's
// inode, the path's own (empty) listing, or the parent's listing.
// Negative entries stay correct (the path is even more absent now).
func (lt *leaseTable) bumpRemoved(path, parent string) pubResult {
	t := lt.now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.overflowUntil > t || lt.liveInode(path, t) || lt.liveList(path, t) || lt.liveList(parent, t) {
		lt.publish(wire.RecallRemoved, path)
		return pubResult{Last: lt.seq, N: 1}
	}
	lt.suppressed++
	return pubResult{}
}

// bumpPatched handles an in-place attribute change: only the exact inode
// entry can be stale.
func (lt *leaseTable) bumpPatched(path string) pubResult {
	t := lt.now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.overflowUntil > t || lt.liveInode(path, t) {
		lt.publish(wire.RecallPatched, path)
		return pubResult{Last: lt.seq, N: 1}
	}
	lt.suppressed++
	return pubResult{}
}

// bumpRenamed handles a directory rename: the whole subtree moved, so both
// sides publish unconditionally — a per-path liveness check would need a
// prefix scan over the grants map, and renames are already the expensive
// prefix-move operation.
func (lt *leaseTable) bumpRenamed(oldPath, newPath string) pubResult {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.publish(wire.RecallRemoved, oldPath)
	lt.publish(wire.RecallCreated, newPath)
	return pubResult{Last: lt.seq, N: 2}
}

// entriesSince returns the published entries after since, or reset=true
// when since predates the bounded log's retention (the client must drop its
// whole cache and jump to cur).
func (lt *leaseTable) entriesSince(since uint64) (cur uint64, reset bool, out []wire.Recall) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	cur = lt.seq
	if since >= cur {
		return cur, false, nil
	}
	if len(lt.log) == 0 || since+1 < lt.log[0].Seq {
		return cur, true, nil
	}
	idx := int(since + 1 - lt.log[0].Seq)
	out = append(out, lt.log[idx:]...)
	return cur, false, out
}

// Suppressed returns how many mutations published no recall (all grants
// for the touched paths had expired or never existed) — the suppression
// win, for tests and introspection.
func (lt *leaseTable) Suppressed() uint64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.suppressed
}

// Granted returns how many lease grants (inode, negative and listing) have
// been recorded on responses.
func (lt *leaseTable) Granted() uint64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.granted
}
