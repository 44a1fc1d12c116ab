// Package partition is the serving layer of the directory metadata service
// (DESIGN.md §16): a Node is the only thing that puts dms.Server handlers on
// an rpc.Server. A lone DMS is a Node running the static solo map — one
// partition, one replica, no cuts — so every deployment, from the paper's
// single DMS (§3.1) to a sharded, replicated one, runs the same code.
//
// The namespace is split into subtree range partitions by the versioned
// wire.ClusterMap. Each partition is a replica group of Nodes wrapping one
// dms.Server each; replica 0 is the leader. Mutations reach the leader,
// which appends them to a replicated op log under the partition lock and,
// in the same locked step, starts the entry's OpLogAppend to every live
// follower; the socket write and the wait for acks happen *outside* the
// lock (a slow follower costs one replication timeout, not a
// partition-wide stall). All live followers must ack before the leader
// replies — an acked mutation is on every non-excluded replica, so
// promoting any follower loses nothing. A follower that cannot ack is
// excluded from the live set and re-admitted by the catch-up protocol
// (catchup.go): it replays the missed log range via OpLogFetch and rejoins
// at the tip. The log itself is bounded: followers report applied
// watermarks on every ack, and entries below the group-wide minimum are
// truncated together with their dedup-replay records (see
// maybePruneLocked).
//
// The log is also the DMS's only at-most-once mechanism: a retried mutation
// is answered from the record its first execution left in the log (applied,
// pendingReq), and a refusal that executed nothing — EWRONGPART, EUNAVAIL,
// EEXPIRED, an undecodable body — leaves no record, so its retry executes.
//
// Followers apply entries in log order through the same dms.Dispatch,
// producing byte-identical state, and serve leased reads locally.
//
// A directory rename that crosses a partition boundary runs a two-
// partition commit: the source leader (coordinator) logs an intent marker
// and freezes the subtree, ships the re-keyed records to the destination
// leader (which validates, logs the prepare on its own group, and freezes
// the target), then logs the commit decision — the transaction's point of
// no return — applies the source-side delete, and drives the destination
// commit. Every decision is in both groups' logs before it takes effect,
// so a promoted leader on either side can finish or abort the transaction
// (Recover): an intent without a logged decision is presumed aborted; a
// logged decision is re-pushed to the destination, where commit/abort are
// idempotent by transaction id.
package partition

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/dms"
	"locofs/internal/fspath"
	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// Replication-plane defaults (overridable per Config).
const (
	// DefaultLogCap bounds the retained op-log suffix (and, through it, the
	// dedup-replay table) when Config.LogCap is zero.
	DefaultLogCap = 4096
	// DefaultRepTimeout bounds each replication RPC when Config.RepTimeout
	// is zero. A follower that cannot ack within it is excluded from the
	// live fan-out set (catch-up re-admits it).
	DefaultRepTimeout = 2 * time.Second
	// catchupBatch is the per-OpLogFetch entry limit.
	catchupBatch = 512
	// catchupGrace is how long an idle catch-up session may hold truncation
	// before the leader declares it abandoned.
	catchupGrace = 30 * time.Second
)

// Config assembles one partition replica.
type Config struct {
	// PID is the partition this node belongs to; Index its replica slot in
	// the partition's group (0 = leader). The node's own fabric address is
	// Map.Groups[PID][Index]: a node names itself by its slot in the
	// installed map, never by comparing addresses.
	PID   uint32
	Index int
	// Map is the initial cluster map. Nil runs the static solo map:
	// version 0, one group holding only this node as its leader (PID and
	// Index are taken as 0), no cuts. Version 0 is never stamped on a
	// response and loses to every other map, so nobody ever routes by the
	// solo map's addresses and the node needs no advertised one.
	Map *wire.ClusterMap
	// DMS is the node's local directory metadata server.
	DMS *dms.Server
	// Dialer reaches peer nodes (followers, other partition leaders).
	Dialer netsim.Dialer
	// Obs (nil = off) receives partition events: failovers, follower
	// exclusions, catch-up progress, 2PC recovery actions.
	Obs *obs.Handle
	// Now supplies the leader-pinned log-entry timestamps. Default:
	// time.Now().UnixNano via the wire clock of the DMS is NOT used —
	// the node needs its own reading before dispatch.
	Now func() int64
	// LogCap bounds the retained op log: once more entries than this are
	// held, the leader prunes down toward the cap, limited by the
	// group-wide applied watermark and any active catch-up session.
	// 0 = DefaultLogCap.
	LogCap int
	// RepTimeout bounds each replication/catch-up RPC (0 = DefaultRepTimeout).
	RepTimeout time.Duration
	// CatchupEvery, when positive, runs a background probe on follower
	// replicas: every interval the node asks its leader for entries past
	// its own tip, so a replica that was excluded while unreachable (and
	// therefore receives no more appends to trip over) rejoins on its own.
	// Zero leaves catch-up on-demand (append gaps, map installs, CatchUp).
	CatchupEvery time.Duration
}

// NewMap builds the version-1 cluster map a deployment starts from.
// groups[pid] lists partition pid's replica addresses leader-first; cuts
// are the cut directories — at least one per partition beyond the first —
// assigned round-robin to partitions 1..N-1 in order, so a partition may own
// several subtrees. The map names no FMS set.
func NewMap(groups [][]string, cuts []string) (*wire.ClusterMap, error) {
	m := &wire.ClusterMap{Ver: 1, Groups: groups}
	if len(cuts) < len(groups)-1 || (len(groups) == 1 && len(cuts) > 0) {
		return nil, fmt.Errorf("partition: %d DMS partitions need at least %d cut directories (one partition takes none), got %d",
			len(groups), len(groups)-1, len(cuts))
	}
	for i, d := range cuts {
		cd, err := fspath.Clean(d)
		if err != nil || cd == "/" || isCutDir(m, cd) {
			return nil, fmt.Errorf("partition: invalid or duplicate DMS cut %q", d)
		}
		m.Cuts = append(m.Cuts, wire.PartCut{Dir: cd, PID: uint32(i%(len(groups)-1)) + 1})
	}
	return m, nil
}

type appliedRes struct {
	status wire.Status
	body   []byte
}

// srcTx is one coordinator-side transaction. It stays in stx after its
// decision until the destination acknowledged that decision (the
// OpRenameSrcComplete marker retires it), so Recover can re-push a commit or
// an abort the destination never received.
type srcTx struct {
	sp        *wire.SrcPrepare
	committed bool
	aborted   bool
}

// catchSession tracks one follower's active catch-up on the leader: the
// oldest index it still needs (truncation must not pass it) and the time of
// its last fetch (sessions idle past catchupGrace are abandoned).
type catchSession struct {
	from uint64
	at   int64
}

// Node is one replica of one DMS partition.
type Node struct {
	dms    *dms.Server
	pid    uint32
	dialer netsim.Dialer
	obs    *obs.Handle
	now    func() int64

	logCap       int
	repTimeout   time.Duration
	catchupEvery time.Duration

	// rs is the rpc.Server the node is attached to. It owns the installed
	// cluster map and this replica's slot in it (see cur); bootMap and
	// bootIdx hold the initial pair until Attach hands it over.
	rs      *rpc.Server
	bootMap *wire.ClusterMap
	bootIdx int

	// txSeq generates the transaction id of every cross-partition rename
	// attempt (see mintTxID). It restarts at zero on every process, so
	// minted ids are disambiguated by the map version folded in — not by the
	// sequence alone.
	txSeq atomic.Uint64

	// catching collapses concurrent catch-up passes into one.
	catching atomic.Bool

	closed    chan struct{}
	closeOnce sync.Once

	// CrashAfterPrepare / CrashAfterCommit are test hooks: when set, the
	// coordinator abandons a cross-partition rename at that protocol point
	// (as if the process died) and returns StatusIO. The crash-recovery
	// tests drive failover through them deterministically.
	CrashAfterPrepare atomic.Bool
	CrashAfterCommit  atomic.Bool

	// mu serializes log append and apply bookkeeping. It is never held
	// across an RPC, a dial or a socket write: an append to a follower is
	// started under it (which fixes wire order to log order) but flushed and
	// waited for outside it, and RPCs to other partitions were always
	// lock-free (deadlock with opposite-direction traffic).
	mu sync.Mutex
	// applyC signals appliedIdx advancing: appenders wait on it until the
	// log prefix before their entry has applied, keeping applies in strict
	// index order even though fan-outs complete out of order.
	applyC *sync.Cond
	// log holds the retained entries [firstIndex, nextIndex); the prefix
	// below firstIndex has been truncated (see maybePruneLocked). Pruning
	// re-slices it in place, so no sub-slice of it may outlive a hold of mu.
	log        []*wire.LogEntry
	firstIndex uint64
	nextIndex  uint64
	// appliedIdx is the next index to apply; every entry below it has been
	// applied to the local DMS.
	appliedIdx uint64
	// preApplied holds results of entries applied eagerly at append time
	// (2PC freeze markers — their guard effects must be visible to the
	// next mutation's checks immediately, see coordRename). The in-order
	// pass skips them and returns the recorded result.
	preApplied map[uint64]appliedRes
	// applied maps a client dedup id to its mutation's outcome. It is
	// rebuilt identically on every replica from the log, so a retry that
	// lands on a freshly promoted leader replays the original response
	// instead of re-executing. It is pruned in lockstep with the log:
	// dropping an entry drops the record its Req keys, and reqFloor
	// remembers the highest pruned per-client sequence so an ancient retry
	// is refused (EEXPIRED) instead of silently re-executed.
	applied  map[uint64]appliedRes
	reqFloor map[uint64]uint64
	// pendingReq holds the dedup ids whose first delivery is still running:
	// a mutation between append and apply, or a cross-partition rename from
	// its intent until coordRename returns. A duplicate arriving meanwhile
	// waits on applyC (see replayLocked) instead of appending twice or
	// meeting the rename's own freeze.
	pendingReq map[uint64]bool
	// excluded holds follower addresses dropped from the live fan-out set
	// after a failed or timed-out append. Exclusion is no longer permanent:
	// the follower replays the missed range via OpLogFetch (catchup.go) and
	// is re-admitted once it reaches the tip, and installing a map whose
	// group no longer lists an address clears its entry. Keeping the
	// invariant "acked ⇒ on every non-excluded replica" is what makes any
	// surviving follower promotable.
	excluded map[string]bool
	// ackMark is each live follower's applied watermark, reported on every
	// append ack; the group-wide minimum bounds truncation.
	ackMark map[string]uint64
	// catch tracks active catch-up sessions by follower address (leader
	// side); an active session holds truncation at its oldest needed index.
	catch map[string]catchSession
	// gauged records that the log gauges are registered (see
	// logAppendLocked).
	gauged bool
	// lagged holds the followers whose ack-lag gauge is registered (leader
	// side; see registerLagGauge).
	lagged map[string]bool

	frozen map[string]int                 // subtree roots locked by in-flight 2PC
	dtx    map[uint64]*wire.RenamePrepare // destination-side prepared txs
	stx    map[uint64]*srcTx              // coordinator-side txs

	peerMu sync.Mutex
	peers  map[string]*rpc.Client

	// seedMu serializes seed pushes (read-state + push) so two back-to-back
	// mutations of one path cannot reorder their absolute-state updates on
	// the target partition. It is never held together with mu.
	seedMu sync.Mutex
}

// New builds a Node. Call Attach to wire it to the replica's rpc.Server.
func New(cfg Config) *Node {
	if cfg.Map == nil {
		cfg.Map = wire.SoloMap("")
		cfg.PID, cfg.Index = 0, 0
	}
	n := &Node{
		dms:          cfg.DMS,
		pid:          cfg.PID,
		dialer:       cfg.Dialer,
		obs:          cfg.Obs,
		now:          cfg.Now,
		logCap:       cfg.LogCap,
		repTimeout:   cfg.RepTimeout,
		catchupEvery: cfg.CatchupEvery,
		bootMap:      cfg.Map,
		bootIdx:      cfg.Index,
		closed:       make(chan struct{}),
		preApplied:   make(map[uint64]appliedRes),
		applied:      make(map[uint64]appliedRes),
		reqFloor:     make(map[uint64]uint64),
		pendingReq:   make(map[uint64]bool),
		excluded:     make(map[string]bool),
		ackMark:      make(map[string]uint64),
		catch:        make(map[string]catchSession),
		lagged:       make(map[string]bool),
		frozen:       make(map[string]int),
		dtx:          make(map[uint64]*wire.RenamePrepare),
		stx:          make(map[uint64]*srcTx),
		peers:        make(map[string]*rpc.Client),
	}
	n.applyC = sync.NewCond(&n.mu)
	if n.now == nil {
		n.now = defaultNow
	}
	if n.logCap <= 0 {
		n.logCap = DefaultLogCap
	}
	if n.repTimeout <= 0 {
		n.repTimeout = DefaultRepTimeout
	}
	return n
}

func defaultNow() int64 { return time.Now().UnixNano() }

// DMS returns the node's local directory metadata server.
func (n *Node) DMS() *dms.Server { return n.dms }

// cur returns the installed cluster map and this replica's slot in its
// partition's group (0 = leader), read as one consistent pair. The install
// step guarantees the slot exists: m.Groups[n.pid][idx] is this node's own
// address under m.
func (n *Node) cur() (m *wire.ClusterMap, idx int) {
	m, at := n.rs.Map()
	return m, int(at.Idx)
}

// Map returns the node's installed cluster map.
func (n *Node) Map() *wire.ClusterMap {
	m, _ := n.cur()
	return m
}

// IsLeader reports whether this node currently leads its partition.
func (n *Node) IsLeader() bool {
	_, idx := n.cur()
	return idx == 0
}

// LogLen returns the replicated op log's length — total entries ever
// appended, including the truncated prefix (tests assert replica
// convergence with it).
func (n *Node) LogLen() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nextIndex
}

// LogRetained returns the number of op-log entries currently held in
// memory: LogLen minus the truncated prefix. Bounded near Config.LogCap
// under sustained load (catch-up sessions may hold it higher temporarily).
func (n *Node) LogRetained() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.log)
}

// DedupLen returns the size of the dedup-replay table, pruned in lockstep
// with the log.
func (n *Node) DedupLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.applied)
}

// Excluded snapshots the follower addresses currently excluded from the
// live fan-out set (catch-up re-admits them).
func (n *Node) Excluded() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.excluded))
	for a := range n.excluded {
		out = append(out, a)
	}
	return out
}

func (n *Node) emit(op string, value int64, detail string) {
	n.obs.Emit(obs.KindPartition, op, 0, value, detail)
}

// Attach hands the initial map to rs, which owns it from here on, and
// registers the DMS handler set: the full DMS op set wrapped with the range
// guard and replication, the replication ops (OpLogAppend, OpLogFetch,
// OpSeedUpdate), the 2PC destination ops, and the node's own OpSetMap (the
// install must run under the partition lock, see installMap). The server
// stamps the lease-recall sequence and the map version on every response
// header. A node must be attached before it is used.
//
// Every op whose handler can wait on another node is registered as
// blocking, with its reason below, so it does not hold up the requests
// queued behind it on its connection. Reads take no partition lock, and
// OpLogFetch only n.mu, which nobody holds across a wait, so both run on the
// connection's reader.
//
// OpLogAppend runs on the reader too, so the leader's appends apply in the
// order they arrive, which is log order. Its one wait is applyInOrderLocked
// on a deposed leader that still has rounds of its own in flight. Those
// rounds end within one replication timeout, which bounds each of their
// appends, and they wait only on this node's outbound connections to its
// followers, never on the inbound one the append arrived on: the reader
// waits at most one timeout, and never on itself.
func (n *Node) Attach(rs *rpc.Server) {
	n.rs = rs
	rs.InstallMap(n.bootMap, wire.DMSCoords(n.pid, n.bootIdx))
	rs.SetLeaseFunc(n.dms.LeaseSeq)
	for _, op := range dms.Ops {
		op := op
		if dms.MutationOp(op) {
			rs.HandleMsg(op, func(req, trace uint64, body []byte) (wire.Status, []byte) {
				return n.serveMutation(op, req, trace, body)
			})
			rs.Blocking(op) // waits for the followers' acks; a cross-partition rename also for its destination
		} else {
			rs.Handle(op, func(body []byte) (wire.Status, []byte) {
				return n.serveRead(op, body)
			})
		}
	}
	rs.Handle(wire.OpLogAppend, n.serveLogAppend)
	rs.Handle(wire.OpLogFetch, n.serveLogFetch)
	rs.Handle(wire.OpSeedUpdate, n.serveSeedUpdate)
	rs.Handle(wire.OpRenamePrepare, n.serveRenamePrepare)
	rs.Handle(wire.OpRenameCommit, n.serveRenameDecision(wire.OpRenameCommit))
	rs.Handle(wire.OpRenameAbort, n.serveRenameDecision(wire.OpRenameAbort))
	rs.Handle(wire.OpSetMap, n.serveSetMap)
	// Blocking, one reason per op:
	//   OpSeedUpdate:    logs the seed, so waits for the followers' acks;
	//   OpRenamePrepare: logs the prepare marker, the same;
	//   OpRenameCommit:  logs the decision, the same;
	//   OpRenameAbort:   the same;
	//   OpSetMap:        a promotion runs Recover's calls to other partitions.
	rs.Blocking(wire.OpSeedUpdate, wire.OpRenamePrepare, wire.OpRenameCommit,
		wire.OpRenameAbort, wire.OpSetMap)
	if n.catchupEvery > 0 {
		go n.catchupLoop(n.catchupEvery)
	}
}

// ---- reads ----

func (n *Node) serveRead(op wire.Op, body []byte) (wire.Status, []byte) {
	p1, _, hasPath, err := dms.RequestPaths(op, body)
	if err != nil {
		return wire.StatusInval, nil
	}
	if hasPath {
		pm := n.Map()
		owner := pm.Locate(p1)
		if op == wire.OpReaddirSubdirs {
			owner = pm.LocateList(p1)
		}
		if owner != n.pid {
			return wire.StatusWrongPartition, nil
		}
	}
	return n.dms.Dispatch(op, body)
}

// ---- mutations ----

func (n *Node) serveMutation(op wire.Op, req, trace uint64, body []byte) (wire.Status, []byte) {
	p1, p2, _, err := dms.RequestPaths(op, body)
	if err != nil {
		return wire.StatusInval, nil
	}
	pm, idx := n.cur()
	if op == wire.OpRenameDir {
		if pm.CutWithin(p1) || pm.CutWithin(p2) {
			return wire.StatusInval, []byte("rename source or target subtree straddles a partition cut")
		}
		if pm.Locate(p1) != n.pid || idx != 0 {
			return wire.StatusWrongPartition, nil
		}
		if dst := pm.Locate(p2); dst != n.pid {
			return n.coordRename(req, trace, p1, p2, body, dst, pm)
		}
		return n.replicate(op, req, trace, body, p1, p2)
	}
	if op == wire.OpRmdir && isCutDir(pm, p1) {
		// A cut directory is a mount-point-like fixture: its (empty or not)
		// listing lives on another partition and removing it would orphan
		// the cut. EBUSY analog.
		return wire.StatusInval, []byte("directory is a partition cut point")
	}
	if pm.Locate(p1) != n.pid || idx != 0 {
		return wire.StatusWrongPartition, nil
	}
	st, respBody := n.replicate(op, req, trace, body, p1, "")
	if st == wire.StatusOK {
		n.pushSeeds(p1, pm)
	}
	return st, respBody
}

func isCutDir(pm *wire.ClusterMap, p string) bool {
	for _, c := range pm.Cuts {
		if c.Dir == p {
			return true
		}
	}
	return false
}

// replicate runs one mutation through the replicated op log: dedup check
// (replay, including a wait for an in-flight first delivery, and the
// pruned-watermark guard), freeze check, append under the lock, follower
// fan-out outside it, in-order local apply.
func (n *Node) replicate(op wire.Op, req, trace uint64, body []byte, p1, p2 string) (wire.Status, []byte) {
	n.lockAppend()
	if r, ok := n.replayLocked(req); ok {
		n.mu.Unlock()
		n.obs.Replayed(op.String(), trace)
		return r.status, r.body
	}
	if n.reqExpiredLocked(req) {
		n.mu.Unlock()
		return wire.StatusExpired, []byte("request predates the pruned dedup watermark")
	}
	for _, p := range [2]string{p1, p2} {
		if p != "" && n.frozenConflictLocked(p) {
			n.mu.Unlock()
			return wire.StatusUnavailable, []byte("subtree locked by an in-flight cross-partition rename")
		}
	}
	f := n.appendLocked(&wire.LogEntry{Req: req, TS: n.now(), Op: op, Body: body}, false)
	n.mu.Unlock()
	if f == nil {
		// Deposed between the routing check and the append: nothing was
		// logged; the client re-routes off the successor map.
		return wire.StatusWrongPartition, nil
	}
	return n.finishAppend(f)
}

// fanout is one append's replication round: the OpLogAppend started to
// each live follower, which finishAppend waits for before applying the entry
// in log order.
type fanout struct {
	le   *wire.LogEntry
	acks []repAck
}

// repAck is one follower's append in a round. cl is nil when the follower
// had no connection when the append was due (lockAppend's dial failed).
type repAck struct {
	addr string
	cl   *rpc.Client
	call rpc.Call
	// Set by wait: the follower's applied watermark, or why it failed.
	mark uint64
	fail string
}

// wait collects the follower's ack. A transport failure or timeout also
// drops the connection, which fails the later appends still in flight to
// the same follower at once instead of each after its own timeout.
func (a *repAck) wait(n *Node) {
	if a.cl == nil {
		a.fail = "not connected"
		return
	}
	st, resp, _, err := a.call.Wait()
	switch {
	case err != nil:
		a.fail = err.Error()
		n.dropPeer(a.addr, a.cl)
	case st != wire.StatusOK:
		// A gap: the follower is already starting catch-up on its own.
		a.fail = st.String()
	default:
		a.mark, _ = wire.DecodeLogAck(resp)
	}
}

// appendLocked assigns the next index to le, appends it to the log, and
// starts its OpLogAppend to every live follower. Starting only appends the
// frame to the follower's connection, under the connection's own lock, so
// wire order is log order; finishAppend flushes it after n.mu is released.
// Take n.mu with lockAppend, which dials any follower that has no
// connection yet, so that nothing here dials. appendLocked returns nil —
// appending nothing — when this node is not, or no longer, the partition
// leader: the check runs under n.mu, the same lock installMap installs maps
// under, so a deposed leader cannot slip an entry in after its successor
// took over.
//
// Every non-nil return must be finished with exactly one finishAppend (or
// appendLocked's caller must otherwise call applyInOrderLocked), or
// appliedIdx stalls and every later apply waits forever.
//
// With eager set, the entry's effects are also applied immediately, under
// this same lock, and the in-order pass later skips it: used for the 2PC
// freeze markers, whose guard effects must be visible to the next
// mutation's freeze check the moment the marker is in the log — waiting
// for the fan-out round would let a mutation slip into a subtree whose
// export is already on its way to the destination. Only entries whose
// apply touches pure bookkeeping (no store state) may be eager; freezing
// early is conservative, the symmetric unfreeze stays strictly in order.
func (n *Node) appendLocked(le *wire.LogEntry, eager bool) *fanout {
	if !n.IsLeader() {
		return nil
	}
	le.Index = n.nextIndex
	n.logAppendLocked(le)
	if le.Req != 0 {
		n.pendingReq[le.Req] = true
	}
	f := &fanout{le: le}
	if flw := n.followersLocked(); len(flw) > 0 {
		spec := rpc.CallSpec{Op: wire.OpLogAppend, Body: wire.EncodeLogAppend(n.firstIndex, le), Timeout: n.repTimeout}
		f.acks = make([]repAck, len(flw))
		for i, addr := range flw {
			if !n.lagged[addr] {
				n.lagged[addr] = true
				n.registerLagGauge(addr)
			}
			a := &f.acks[i]
			a.addr = addr
			if a.cl = n.dialed(addr); a.cl != nil {
				a.call = a.cl.Start(spec)
			}
		}
	}
	if eager {
		st, body := n.applyLocked(le)
		n.preApplied[le.Index] = appliedRes{status: st, body: body}
	}
	return f
}

// finishAppend completes one append outside n.mu: flush the round's
// appends, wait for every live follower's ack, exclude each follower that
// failed before anything is applied or answered (so the acked-everywhere
// invariant holds at reply time), then apply in log order and prune.
func (n *Node) finishAppend(f *fanout) (wire.Status, []byte) {
	for i := range f.acks {
		if cl := f.acks[i].cl; cl != nil {
			_ = cl.Flush() // a failed write fails the call, which wait reports
		}
	}
	for i := range f.acks {
		f.acks[i].wait(n)
	}
	n.mu.Lock()
	for _, a := range f.acks {
		if a.fail != "" {
			n.excludeLocked(a.addr, f.le.Index, a.fail)
		} else if !n.excluded[a.addr] && a.mark > n.ackMark[a.addr] {
			n.ackMark[a.addr] = a.mark
		}
	}
	st, body := n.applyInOrderLocked(f.le)
	n.maybePruneLocked()
	n.mu.Unlock()
	return st, body
}

// finishInternal completes an internal (2PC marker / seed) append,
// surfacing failure instead of proceeding as if the entry were durable: a
// nil fanout means the node was deposed before appending — the entry is
// not in any log — and a non-OK apply means the marker itself was broken.
// Both are journaled and returned as EIO.
func (n *Node) finishInternal(f *fanout, what, detail string) wire.Status {
	if f == nil {
		n.emit("append_failed", 0, what+" refused, not leader: "+detail)
		return wire.StatusIO
	}
	st, _ := n.finishAppend(f)
	if st != wire.StatusOK {
		n.emit("append_failed", int64(f.le.Index), what+": "+st.String())
		return wire.StatusIO
	}
	return wire.StatusOK
}

// applyInOrderLocked applies le once every entry before it has applied,
// waiting on applyC if fan-out rounds completed out of order. Eagerly
// applied entries (preApplied) only advance the watermark and replay their
// recorded result. Caller holds n.mu.
func (n *Node) applyInOrderLocked(le *wire.LogEntry) (wire.Status, []byte) {
	for n.appliedIdx != le.Index {
		n.applyC.Wait()
	}
	var st wire.Status
	var body []byte
	if r, ok := n.preApplied[le.Index]; ok {
		delete(n.preApplied, le.Index)
		st, body = r.status, r.body
	} else {
		st, body = n.applyLocked(le)
	}
	n.appliedIdx++
	if le.Req != 0 {
		delete(n.pendingReq, le.Req)
	}
	n.applyC.Broadcast()
	return st, body
}

// followersLocked lists the live replication targets: the group minus this
// node's own slot and minus excluded replicas. The slot, not the address,
// names this node: a solo DMS handed a map that lists it by whatever address
// the pushing client dialed must not replicate to itself.
func (n *Node) followersLocked() []string {
	pm, idx := n.cur()
	var out []string
	for i, addr := range pm.Groups[n.pid] {
		if i != idx && !n.excluded[addr] {
			out = append(out, addr)
		}
	}
	return out
}

// excludeLocked drops addr from the live fan-out set, after its append of
// entry idx failed, and forgets its ack watermark. finishAppend excludes
// before it applies or answers, so the leader never acks a mutation a
// non-excluded replica is missing. A failure of an entry the follower has
// since reported applied (its watermark is past idx — a late failure from
// before catch-up readmitted it) excludes nothing. Catch-up re-admits the
// follower (serveLogFetch).
func (n *Node) excludeLocked(addr string, idx uint64, detail string) {
	if n.excluded[addr] || n.ackMark[addr] > idx {
		return
	}
	n.excluded[addr] = true
	delete(n.ackMark, addr)
	n.emit("follower_excluded", int64(idx), detail)
}

// applyLocked applies one log entry to local state. It runs identically on
// the leader (in log order, after fan-out) and on followers (from
// OpLogAppend or catch-up), producing byte-identical stores and the same
// applied-response table everywhere.
func (n *Node) applyLocked(le *wire.LogEntry) (wire.Status, []byte) {
	switch le.Op {
	case wire.OpSeedUpdate:
		path, present, inode, err := wire.DecodeSeedUpdate(le.Body)
		if err != nil {
			return wire.StatusInval, nil
		}
		return n.dms.InstallSeed(path, present, inode), nil

	case wire.OpRenamePrepare:
		rp, err := wire.DecodeRenamePrepare(le.Body)
		if err != nil {
			return wire.StatusInval, nil
		}
		n.dtx[rp.TxID] = rp
		n.freezeLocked(rp.NewPath)
		return wire.StatusOK, nil

	case wire.OpRenameCommit:
		txid, err := wire.DecodeRenameDecision(le.Body)
		if err != nil {
			return wire.StatusInval, nil
		}
		rp, ok := n.dtx[txid]
		if !ok {
			return wire.StatusOK, nil // replayed decision
		}
		st := n.dms.ApplyRenameDestCommit(rp.NewPath, rp.Recs)
		n.unfreezeLocked(rp.NewPath)
		delete(n.dtx, txid)
		return st, nil

	case wire.OpRenameAbort:
		txid, err := wire.DecodeRenameDecision(le.Body)
		if err != nil {
			return wire.StatusInval, nil
		}
		if rp, ok := n.dtx[txid]; ok {
			n.unfreezeLocked(rp.NewPath)
			delete(n.dtx, txid)
		}
		return wire.StatusOK, nil

	case wire.OpRenameSrcPrepare:
		sp, err := wire.DecodeSrcPrepare(le.Body)
		if err != nil {
			return wire.StatusInval, nil
		}
		n.stx[sp.TxID] = &srcTx{sp: sp}
		n.freezeLocked(sp.OldPath)
		return wire.StatusOK, nil

	case wire.OpRenameSrcCommit:
		txid, err := wire.DecodeRenameDecision(le.Body)
		if err != nil {
			return wire.StatusInval, nil
		}
		tx, ok := n.stx[txid]
		if !ok || tx.committed || tx.aborted {
			return wire.StatusOK, nil
		}
		body, st := n.dms.ApplyRenameSrcCommit(tx.sp.OldPath)
		tx.committed = true
		n.unfreezeLocked(tx.sp.OldPath)
		// The commit entry carries the client's request id (the txid names
		// only this attempt's 2PC round), so a retry replays this outcome.
		if le.Req != 0 {
			n.applied[le.Req] = appliedRes{status: st, body: body}
		}
		return st, body

	case wire.OpRenameSrcComplete:
		txid, err := wire.DecodeRenameDecision(le.Body)
		if err != nil {
			return wire.StatusInval, nil
		}
		delete(n.stx, txid)
		return wire.StatusOK, nil

	case wire.OpRenameSrcAbort:
		txid, err := wire.DecodeRenameDecision(le.Body)
		if err != nil {
			return wire.StatusInval, nil
		}
		if tx, ok := n.stx[txid]; ok && !tx.committed && !tx.aborted {
			n.unfreezeLocked(tx.sp.OldPath)
			tx.aborted = true
		}
		return wire.StatusOK, nil

	default:
		// Ordinary DMS mutation: dispatch under the leader-pinned clock so
		// every replica stamps the same ctime and generates the same UUIDs
		// (replicas share the DMS ServerID and apply in log order).
		n.dms.PinClock(le.TS)
		st, body := n.dms.Dispatch(le.Op, le.Body)
		n.dms.UnpinClock()
		if le.Req != 0 {
			n.applied[le.Req] = appliedRes{status: st, body: body}
		}
		return st, body
	}
}

// ---- at-most-once ----

// replayLocked looks req up in the log's record of executions, first waiting
// out a first delivery still in flight (pendingReq). ok reports a record to
// replay; without one — a fresh request, or one whose earlier deliveries
// were all refused before reaching the log — the caller executes it. req ==
// 0 (no dedup id) never matches. Caller holds n.mu.
func (n *Node) replayLocked(req uint64) (r appliedRes, ok bool) {
	if req == 0 {
		return r, false
	}
	for n.pendingReq[req] {
		n.applyC.Wait()
	}
	r, ok = n.applied[req]
	return r, ok
}

// splitReq splits a dedup id into its per-client base and 24-bit sequence
// (the client layout: identity bits above a 24-bit per-client counter —
// see the client resilience layer's request ids).
func splitReq(req uint64) (base, seq uint64) {
	return req &^ (1<<24 - 1), req & (1<<24 - 1)
}

// reqExpiredLocked reports whether req lies below its client's pruned dedup
// watermark: a *later* request from the same client has already been pruned
// from the applied table, so if req had executed, its record is long gone —
// the node can no longer tell the retry from a fresh request, and refusing
// (EEXPIRED) is the safe side of at-most-once. The 24-bit client sequence
// wraps at 16M mutations per client; retrying across a full wrap is out of
// scope at this scale. reqFloor grows one entry per client base ever pruned
// — O(clients), not O(mutations). A request without an id never expires.
func (n *Node) reqExpiredLocked(req uint64) bool {
	if req == 0 {
		return false
	}
	base, seq := splitReq(req)
	f, ok := n.reqFloor[base]
	return ok && seq <= f
}

// ---- truncation ----

// maybePruneLocked trims the op log toward LogCap when every retention
// constraint allows. The prune target is the minimum of: the cap overflow
// point, the leader's own applied tip (never truncate the unapplied
// suffix), every live follower's acked watermark (an entry below the
// group-wide minimum is applied everywhere, so no promotable replica can
// ever need it again — the truncation safety argument), and the floor of
// every active catch-up session (a catching-up replica still needs the
// range it is replaying; sessions idle past catchupGrace stop counting).
// Followers mirror the leader's floor from the value piggybacked on every
// append, so the whole group truncates identically.
func (n *Node) maybePruneLocked() {
	if !n.IsLeader() || int(n.nextIndex-n.firstIndex) <= n.logCap {
		return
	}
	target := n.nextIndex - uint64(n.logCap)
	if target > n.appliedIdx {
		target = n.appliedIdx
	}
	for _, addr := range n.followersLocked() {
		if m := n.ackMark[addr]; m < target {
			target = m
		}
	}
	nowTS := n.now()
	for addr, cs := range n.catch {
		if nowTS-cs.at > int64(catchupGrace) {
			delete(n.catch, addr) // abandoned session: stop holding truncation
			continue
		}
		if cs.from < target {
			target = cs.from
		}
	}
	n.pruneToLocked(target)
}

// pruneToLocked drops log entries below target (clamped to the applied
// prefix), releasing their dedup-replay records and advancing the
// per-client floors the EEXPIRED guard checks. Caller holds n.mu.
func (n *Node) pruneToLocked(target uint64) {
	if target > n.appliedIdx {
		target = n.appliedIdx
	}
	if target <= n.firstIndex {
		return
	}
	drop := int(target - n.firstIndex)
	if drop > len(n.log) {
		drop = len(n.log)
	}
	for _, le := range n.log[:drop] {
		if le.Req == 0 {
			continue
		}
		delete(n.applied, le.Req)
		base, seq := splitReq(le.Req)
		if f, ok := n.reqFloor[base]; !ok || f < seq {
			n.reqFloor[base] = seq
		}
	}
	// Re-slice instead of copying the retained suffix: the dropped slots are
	// cleared so their entries are collectable, and the next append that
	// outgrows the array copies only the suffix, releasing the prefix — an
	// amortised O(1) prune. This is safe only because nothing holds a
	// sub-slice of n.log outside n.mu (serveLogFetch copies its range out
	// under the lock).
	clear(n.log[:drop])
	n.log = n.log[drop:]
	n.firstIndex = target
}

// ---- log gauges ----

// Log gauges exported on Config.Obs's registry, sampled under the partition
// lock at scrape time.
const (
	MetricLogRetained       = "locofs_dms_partition_log_retained"
	MetricLogFirstIndex     = "locofs_dms_partition_log_first_index"
	MetricLogAppliedIndex   = "locofs_dms_partition_log_applied_index"
	MetricLogNextIndex      = "locofs_dms_partition_log_next_index"
	MetricExcludedFollowers = "locofs_dms_partition_excluded_followers"
	MetricFollowerAckLag    = "locofs_dms_partition_follower_ack_lag"
)

// logAppendLocked appends le at the log tip. The node's first append
// registers its log gauges, so a node that never logs — and start-up —
// does no metrics work. Caller holds n.mu.
func (n *Node) logAppendLocked(le *wire.LogEntry) {
	if !n.gauged {
		n.gauged = true
		n.registerLogGauges()
	}
	n.log = append(n.log, le)
	n.nextIndex++
}

// sampled returns a gauge reading f under n.mu.
func (n *Node) sampled(f func() uint64) func() float64 {
	return func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(f())
	}
}

func (n *Node) registerLogGauges() {
	reg := n.obs.Registry()
	if reg == nil {
		return
	}
	reg.GaugeFunc(MetricLogRetained, n.sampled(func() uint64 { return uint64(len(n.log)) }))
	reg.GaugeFunc(MetricLogFirstIndex, n.sampled(func() uint64 { return n.firstIndex }))
	reg.GaugeFunc(MetricLogAppliedIndex, n.sampled(func() uint64 { return n.appliedIdx }))
	reg.GaugeFunc(MetricLogNextIndex, n.sampled(func() uint64 { return n.nextIndex }))
	reg.GaugeFunc(MetricExcludedFollowers, n.sampled(func() uint64 { return uint64(len(n.excluded)) }))
}

// registerLagGauge exports how many applied entries follower addr has not
// acked. An excluded follower has no watermark, so it reads as lagging the
// whole applied log until catch-up readmits it. The gauge lives as long as
// the follower is in the group and this node leads it (installMap drops it).
func (n *Node) registerLagGauge(addr string) {
	reg := n.obs.Registry()
	if reg == nil {
		return
	}
	reg.GaugeFunc(MetricFollowerAckLag, n.sampled(func() uint64 {
		if m := n.ackMark[addr]; m < n.appliedIdx {
			return n.appliedIdx - m
		}
		return 0
	}), telemetry.L("follower", addr))
}

// ---- freeze bookkeeping ----

func (n *Node) freezeLocked(root string) { n.frozen[root]++ }
func (n *Node) unfreezeLocked(root string) {
	if n.frozen[root] <= 1 {
		delete(n.frozen, root)
	} else {
		n.frozen[root]--
	}
}

// frozenConflictLocked reports whether p overlaps a frozen subtree: p is a
// frozen root, inside one, or an ancestor of one (an ancestor rename or
// rmdir would move or check state the transaction owns).
func (n *Node) frozenConflictLocked(p string) bool {
	for f := range n.frozen {
		if p == f || fspath.IsAncestorOf(f, p) || fspath.IsAncestorOf(p, f) {
			return true
		}
	}
	return false
}

// ---- seed pushes ----

// pushSeeds propagates p's post-mutation inode state to every partition
// holding p as a seeded ancestor. Runs after the local commit, outside
// n.mu (cross-partition call), serialized per node so back-to-back
// mutations of one path cannot reorder their absolute-state updates.
// A push failure only degrades that partition's seed freshness (flight
// event); the local mutation is already acked and must stand.
func (n *Node) pushSeeds(p string, pm *wire.ClusterMap) {
	targets := pm.SeedTargets(p, n.pid)
	if len(targets) == 0 {
		return
	}
	n.seedMu.Lock()
	defer n.seedMu.Unlock()
	ino, ok := n.dms.CurrentInode(p)
	body := wire.EncodeSeedUpdate(p, ok, ino)
	for _, pid := range targets {
		addr := pm.Leader(pid)
		if addr == "" {
			continue
		}
		st, _, err := n.callPeer(addr, wire.OpSeedUpdate, body)
		if err != nil || st != wire.StatusOK {
			n.emit("seed_push_failed", int64(pid), p)
		}
	}
}

func (n *Node) serveSeedUpdate(body []byte) (wire.Status, []byte) {
	path, _, _, err := wire.DecodeSeedUpdate(body)
	if err != nil {
		return wire.StatusInval, nil
	}
	if !n.IsLeader() {
		return wire.StatusWrongPartition, nil
	}
	n.lockAppend()
	f := n.appendLocked(&wire.LogEntry{TS: n.now(), Op: wire.OpSeedUpdate, Body: body}, false)
	n.mu.Unlock()
	// A refused or failed append means the seed is NOT in the replicated
	// log — returning OK would let the pusher believe this partition's
	// replicas hold the fresh ancestor state when a promoted follower would
	// not. Surface EIO so the pusher journals the degraded freshness.
	return n.finishInternal(f, "seed_update", path), nil
}

// ---- replication (follower side) ----

func (n *Node) serveLogAppend(body []byte) (wire.Status, []byte) {
	floor, le, err := wire.DecodeLogAppend(body)
	if err != nil {
		return wire.StatusInval, nil
	}
	n.mu.Lock()
	if le.Index < n.nextIndex {
		mark := n.appliedIdx
		n.mu.Unlock()
		return wire.StatusOK, wire.EncodeLogAck(mark) // duplicate append (leader retry)
	}
	if le.Index > n.nextIndex {
		n.mu.Unlock()
		// A gap means this replica missed an entry — it must not ack, or
		// the acked-everywhere invariant breaks. The leader excludes it;
		// the catch-up pass kicked here replays the gap and rejoins.
		n.startCatchUp("append-gap")
		return wire.StatusInval, []byte("op-log gap")
	}
	n.logAppendLocked(le)
	// The apply outcome is recorded in n.applied for client-retry replay;
	// the append itself succeeded regardless of the mutation's own status
	// (the leader returns that status to the client). The ack carries this
	// replica's applied watermark; the piggybacked floor mirrors the
	// leader's truncation.
	n.applyInOrderLocked(le)
	n.pruneToLocked(floor)
	mark := n.appliedIdx
	n.mu.Unlock()
	return wire.StatusOK, wire.EncodeLogAck(mark)
}

// ---- two-partition rename (coordinator = source leader) ----

// mintTxID builds the transaction id of one cross-partition rename attempt.
// It is never the client's request id: a refused attempt can leave its
// prepare behind at the destination (its abort lost), and a retry reusing
// that id would find the prepare, be answered as its duplicate, and commit
// the first attempt's stale export. The top bit marks the id coordinator-
// minted; the installed map's version is folded in so ids minted by
// successive leaders — each restarting txSeq at zero after a promotion —
// cannot collide with a failed leader's transactions still live in
// stx/dtx: every failover bumps the map version, and a given version's ids
// are minted by exactly one leader. 22 version bits wrap after 4M map
// pushes; 41 sequence bits never wrap in practice.
func (n *Node) mintTxID(ver uint64) uint64 {
	return 1<<63 | (ver&(1<<22-1))<<41 | (n.txSeq.Add(1) & (1<<41 - 1))
}

func (n *Node) coordRename(req, trace uint64, oldC, newC string, body []byte, dstPID uint32, pm *wire.ClusterMap) (wire.Status, []byte) {
	dest := pm.Leader(dstPID)
	if dest == "" {
		return wire.StatusUnavailable, nil
	}
	d := wire.NewDec(body)
	_, _ = d.Str(), d.Str()
	uid, gid := d.U32(), d.U32()
	if d.Err() != nil {
		return wire.StatusInval, nil
	}
	txid := n.mintTxID(pm.Ver)

	// Intent: validate the source half, export the subtree, log the
	// prepare marker (replicated — any promoted source replica knows the
	// transaction exists), freeze the subtree. The marker is applied
	// eagerly under the same lock hold: the freeze must guard the subtree
	// from the instant the export is taken, not an in-order apply later.
	n.lockAppend()
	if r, ok := n.replayLocked(req); ok {
		n.mu.Unlock()
		n.obs.Replayed(wire.OpRenameDir.String(), trace)
		return r.status, r.body
	}
	if n.reqExpiredLocked(req) {
		n.mu.Unlock()
		return wire.StatusExpired, []byte("request predates the pruned dedup watermark")
	}
	// From here until this call returns, on every path, the request is
	// pending: a duplicate waits for this delivery's outcome rather than
	// meeting the freeze below and answering EUNAVAIL.
	if req != 0 {
		n.pendingReq[req] = true
		defer func() {
			n.mu.Lock()
			delete(n.pendingReq, req)
			n.applyC.Broadcast()
			n.mu.Unlock()
		}()
	}
	if n.frozenConflictLocked(oldC) || n.frozenConflictLocked(newC) {
		n.mu.Unlock()
		return wire.StatusUnavailable, []byte("subtree locked by an in-flight cross-partition rename")
	}
	if st := n.dms.ValidateRenameSource(oldC, uid, gid); st != wire.StatusOK {
		n.mu.Unlock()
		return st, nil
	}
	recs, st := n.dms.ExportRename(oldC, newC)
	if st != wire.StatusOK {
		n.mu.Unlock()
		return st, nil
	}
	sp := &wire.SrcPrepare{TxID: txid, OldPath: oldC, NewPath: newC, UID: uid, GID: gid, DestPID: dstPID}
	fPrep := n.appendLocked(&wire.LogEntry{TS: n.now(), Op: wire.OpRenameSrcPrepare, Body: wire.EncodeSrcPrepare(sp)}, true)
	n.mu.Unlock()
	if st := n.finishInternal(fPrep, "rename_intent", oldC); st != wire.StatusOK {
		// The intent never made the replicated log (deposed mid-request):
		// nothing is frozen anywhere durable; the client re-routes and
		// retries against the new leader.
		return st, nil
	}

	// Phase 1: prepare at the destination leader (validates, logs on its
	// group, freezes the target). Never called under n.mu.
	prep := &wire.RenamePrepare{TxID: txid, OldPath: oldC, NewPath: newC, UID: uid, GID: gid, Recs: recs}
	pst, _, perr := n.callPeer(dest, wire.OpRenamePrepare, wire.EncodeRenamePrepare(prep))
	if n.CrashAfterPrepare.Load() {
		// Test hook: the coordinator dies here — intent logged on both
		// sides, no decision anywhere. Recovery presumes abort.
		return wire.StatusIO, nil
	}
	if perr != nil || pst != wire.StatusOK {
		n.abortTx(txid, dest)
		if perr != nil {
			return wire.StatusUnavailable, nil
		}
		return pst, nil
	}

	// Decision: the commit marker in the source log is the point of no
	// return. Applying it deletes the source subtree and records the
	// client response, under the client's request id, on every source
	// replica.
	n.lockAppend()
	fCommit := n.appendLocked(&wire.LogEntry{Req: req, TS: n.now(), Op: wire.OpRenameSrcCommit, Body: wire.EncodeRenameDecision(txid)}, false)
	n.mu.Unlock()
	if fCommit == nil {
		// Deposed between intent and decision: no commit was logged, so the
		// successor's recovery presumes abort and tells the destination.
		// EIO (not OK) — the rename did not happen here.
		n.emit("append_failed", 0, "rename_decision refused, not leader: "+oldC)
		return wire.StatusIO, nil
	}
	cst, respBody := n.finishAppend(fCommit)
	if n.CrashAfterCommit.Load() {
		// Test hook: the coordinator dies after deciding commit but before
		// telling the destination. Recovery re-drives the commit.
		return wire.StatusIO, nil
	}

	// Phase 2: drive the destination commit, then retire the transaction.
	if !n.pushDecision(wire.OpRenameCommit, txid, dest) {
		// The rename is committed; the destination will converge when
		// Recover re-drives it (the tx stays in stx).
		n.emit("2pc_commit_push_failed", int64(dstPID), newC)
	}
	return cst, respBody
}

// abortTx logs the abort decision locally (unfreezing the subtree on every
// source replica) and tells the destination.
func (n *Node) abortTx(txid uint64, dest string) {
	n.lockAppend()
	f := n.appendLocked(&wire.LogEntry{TS: n.now(), Op: wire.OpRenameSrcAbort, Body: wire.EncodeRenameDecision(txid)}, false)
	n.mu.Unlock()
	if f != nil {
		n.finishAppend(f)
	}
	if !n.pushDecision(wire.OpRenameAbort, txid, dest) {
		// The destination may still hold the prepare, freezing its target;
		// the tx stays in stx, and Recover re-pushes the abort.
		n.emit("2pc_abort_push_failed", 0, dest)
	}
}

// pushDecision tells the destination a logged decision (op is
// OpRenameCommit or OpRenameAbort) and, once it acknowledged, retires the
// transaction with the completion marker. It reports the acknowledgment.
func (n *Node) pushDecision(op wire.Op, txid uint64, dest string) bool {
	st, _, err := n.callPeer(dest, op, wire.EncodeRenameDecision(txid))
	if err != nil || st != wire.StatusOK {
		return false
	}
	n.lockAppend()
	f := n.appendLocked(&wire.LogEntry{TS: n.now(), Op: wire.OpRenameSrcComplete, Body: wire.EncodeRenameDecision(txid)}, false)
	n.mu.Unlock()
	if f != nil {
		n.finishAppend(f)
	}
	return true
}

// ---- two-partition rename (destination side) ----

func (n *Node) serveRenamePrepare(body []byte) (wire.Status, []byte) {
	rp, err := wire.DecodeRenamePrepare(body)
	if err != nil {
		return wire.StatusInval, nil
	}
	if !n.IsLeader() {
		return wire.StatusWrongPartition, nil
	}
	n.lockAppend()
	if _, ok := n.dtx[rp.TxID]; ok {
		n.mu.Unlock()
		return wire.StatusOK, nil // duplicate prepare (coordinator retry)
	}
	if n.frozenConflictLocked(rp.NewPath) {
		n.mu.Unlock()
		return wire.StatusUnavailable, []byte("target subtree locked by another cross-partition rename")
	}
	if st := n.dms.ValidateRenameDest(rp.NewPath, rp.UID, rp.GID); st != wire.StatusOK {
		n.mu.Unlock()
		return st, nil
	}
	// Eager, like the source intent: the destination freeze must hold from
	// the moment the prepare is logged.
	f := n.appendLocked(&wire.LogEntry{TS: n.now(), Op: wire.OpRenamePrepare, Body: body}, true)
	n.mu.Unlock()
	return n.finishInternal(f, "rename_prepare", rp.NewPath), nil
}

func (n *Node) serveRenameDecision(op wire.Op) rpc.HandlerFunc {
	return func(body []byte) (wire.Status, []byte) {
		txid, err := wire.DecodeRenameDecision(body)
		if err != nil {
			return wire.StatusInval, nil
		}
		if !n.IsLeader() {
			return wire.StatusWrongPartition, nil
		}
		n.lockAppend()
		if _, ok := n.dtx[txid]; !ok {
			n.mu.Unlock()
			// Unknown transaction: already decided and retired here, or
			// never prepared (presumed abort). Either way the decision is
			// idempotent.
			return wire.StatusOK, nil
		}
		f := n.appendLocked(&wire.LogEntry{TS: n.now(), Op: op, Body: body}, false)
		n.mu.Unlock()
		if f == nil {
			return wire.StatusWrongPartition, nil
		}
		st, _ := n.finishAppend(f)
		return st, nil
	}
}

// ---- cluster map install / failover ----

func (n *Node) serveSetMap(body []byte) (wire.Status, []byte) {
	m, at, err := wire.DecodeSetMap(body)
	if err != nil {
		return wire.StatusInval, []byte(err.Error())
	}
	return n.installMap(m, at), nil
}

// installMap is the node's install step, for a pushed map (serveSetMap) and
// for one a follower pulled from its leader (pullMap): hand m to the
// rpc.Server under n.mu — the lock appendLocked checks leadership under —
// then reconcile the replication bookkeeping with the new group and act on
// a change of this replica's slot.
func (n *Node) installMap(m *wire.ClusterMap, at wire.Coords) wire.Status {
	if at.PID != int32(n.pid) || int(n.pid) >= len(m.Groups) ||
		at.Idx < 0 || int(at.Idx) >= len(m.Groups[n.pid]) {
		return wire.StatusInval // the coordinates name no replica of this partition
	}
	n.mu.Lock()
	old, wasIdx := n.cur()
	wasLeader := wasIdx == 0
	if !n.rs.InstallMap(m, at) {
		n.mu.Unlock()
		return wire.StatusStale
	}
	if at.Idx == 0 && !wasLeader {
		n.dms.StartLeaseTerm(m.Ver)
	}
	// The exclusion, ack watermark, and catch-up session of an address the
	// group no longer lists die with the map install — a replaced replica
	// must not stay excluded, hold truncation back, or count toward the
	// group watermark under a map that no longer knows it.
	group := make(map[string]bool)
	for _, a := range m.Groups[n.pid] {
		group[a] = true
	}
	for a := range n.excluded {
		if !group[a] {
			delete(n.excluded, a)
			n.emit("exclusion_dropped", int64(m.Ver), a)
		}
	}
	for a := range n.ackMark {
		if !group[a] {
			delete(n.ackMark, a)
		}
	}
	for a := range n.catch {
		if !group[a] {
			delete(n.catch, a)
		}
	}
	// Ack-lag gauges follow the same rule, excluded followers included: a
	// demoted node exports none, a leader none for a replica it lost.
	reg := n.obs.Registry()
	for _, a := range old.Groups[n.pid] {
		if at.Idx != 0 || !group[a] {
			delete(n.lagged, a)
			if reg != nil {
				reg.Unregister(MetricFollowerAckLag, telemetry.L("follower", a))
			}
		}
	}
	n.mu.Unlock()
	if at.Idx == 0 && !wasLeader {
		n.emit("promoted", int64(m.Ver), m.Groups[n.pid][0])
		n.Recover()
	}
	if at.Idx != 0 {
		// A (re-)added or demoted replica pulls itself to the leader's tip
		// and rejoins the live fan-out set; an already-current one gets a
		// cheap at-tip ack. Asynchronous — the map push must not block on
		// a leader that is itself mid-recovery.
		n.startCatchUp("map-install")
	}
	return wire.StatusOK
}

// Recover finishes or aborts cross-partition renames left open by the
// failed leader, using only replicated state. An intent without a logged
// decision is presumed aborted (the destination may hold a prepare — the
// abort is pushed there, where an unknown transaction id is a no-op). A
// logged decision without a completion marker — the destination never
// acknowledged it — is re-pushed: the destination's commit and abort are
// idempotent by transaction id. Called on promotion; exported for tests.
func (n *Node) Recover() {
	type action struct {
		txid    uint64
		commit  bool
		destPID uint32
	}
	var acts []action
	n.mu.Lock()
	for txid, tx := range n.stx {
		acts = append(acts, action{txid: txid, commit: tx.committed, destPID: tx.sp.DestPID})
	}
	n.mu.Unlock()
	pm := n.Map()

	for _, a := range acts {
		dest := pm.Leader(a.destPID)
		if a.commit {
			n.emit("2pc_recover_commit", int64(a.destPID), "")
			n.pushDecision(wire.OpRenameCommit, a.txid, dest)
		} else {
			n.emit("2pc_recover_abort", int64(a.destPID), "")
			n.abortTx(a.txid, dest)
		}
	}
}

// ---- peers ----

// dialed returns the connection to addr, or nil when there is none yet. It
// never dials, so appendLocked may call it under n.mu.
func (n *Node) dialed(addr string) *rpc.Client {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	return n.peers[addr]
}

// peer returns the connection to addr, dialing it when there is none. The
// dial runs without peerMu, so a slow dial never holds up dialed.
func (n *Node) peer(addr string) (*rpc.Client, error) {
	if cl := n.dialed(addr); cl != nil {
		return cl, nil
	}
	cl, err := rpc.Dial(n.dialer, addr)
	if err != nil {
		return nil, err
	}
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if won := n.peers[addr]; won != nil {
		cl.Close() // a concurrent dial got there first
		return won, nil
	}
	n.peers[addr] = cl
	return cl, nil
}

// lockAppend takes n.mu for an append, first dialing every live follower
// that has no connection yet, with the lock released, so appendLocked dials
// nothing under it.
func (n *Node) lockAppend() {
	n.mu.Lock()
	pm, idx := n.cur()
	for i, addr := range pm.Groups[n.pid] {
		if idx == 0 && i != 0 && !n.excluded[addr] && n.dialed(addr) == nil {
			n.mu.Unlock()
			_, _ = n.peer(addr) // a failed dial excludes the follower (repAck.wait)
			n.mu.Lock()
		}
	}
}

func (n *Node) callPeer(addr string, op wire.Op, body []byte) (wire.Status, []byte, error) {
	return n.callPeerSpec(addr, rpc.CallSpec{Op: op, Body: body})
}

func (n *Node) callPeerSpec(addr string, spec rpc.CallSpec) (wire.Status, []byte, error) {
	cl, err := n.peer(addr)
	if err != nil {
		return wire.StatusIO, nil, err
	}
	st, respBody, _, err := cl.Do(spec)
	if err != nil {
		n.dropPeer(addr, cl)
	}
	return st, respBody, err
}

// dropPeer discards a broken connection; the next call re-dials.
func (n *Node) dropPeer(addr string, cl *rpc.Client) {
	n.peerMu.Lock()
	if n.peers[addr] == cl {
		delete(n.peers, addr)
	}
	n.peerMu.Unlock()
	cl.Close()
}

// Close stops the node's background catch-up and releases its peer
// connections, which fails the appends still in flight on them.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.closed) })
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	for addr, cl := range n.peers {
		cl.Close()
		delete(n.peers, addr)
	}
}
