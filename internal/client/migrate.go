package client

// Changing the cluster map: the coordinator side of elasticity and DMS
// failover (DESIGN.md §12). A change runs entirely through public wire ops,
// so any client (including the locofsd admin CLI) can drive one against a
// live cluster, and every change is the same move — changeMap: take the
// newest map, edit it, Ver+1, push.
//
// An FMS membership change is three edits around a drain:
//
//  1. Open the migration window: the new FMS set, with the outgoing set in
//     Prev. From this moment servers stamp the new version on every
//     response, clients notice and switch to dual-read routing, and the FMS
//     create-guard refuses creates for keys it no longer owns.
//  2. Drain each outgoing-set server: scan for files the new ring places
//     elsewhere (OpMigrateScan), install them at their new owners
//     (OpMigrateInstall, one send per destination), then conditionally
//     delete the source copies (OpMigrateDelete, one send).
//     A source copy mutated after its export is left in place and picked
//     up by the next scan pass; the loop runs until a scan comes back
//     clean, so no concurrent update is ever lost.
//  3. Close the window: clear Prev.
//
// A DMS failover is one edit: drop the dead replica from its group
// (DropDMSReplica); a follower that finds itself in slot 0 of the pushed
// map is thereby promoted.
//
// Only ~1/n of the keyspace moves on a grow (consistent hashing); the
// namespace stays fully readable throughout because reads fall back to
// the previous owner until the key has landed.

import (
	"context"
	"fmt"
	"time"

	"locofs/internal/chash"
	"locofs/internal/dms/partition"
	"locofs/internal/fms"
	"locofs/internal/obs"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// migrateScanLimit bounds one OpMigrateScan response (files per page), so
// a drain of a large server streams in bounded chunks instead of one huge
// response.
const migrateScanLimit = 512

// MetricMigratedKeys counts files this client has relocated as a
// membership-change coordinator.
const MetricMigratedKeys = "locofs_client_migrated_keys_total"

// changeMapAttempts bounds changeMap's retries at its serialisation point.
const changeMapAttempts = 8

// changeMap is the one way the cluster map changes. It takes the newest map
// this client holds, applies edit to a copy, bumps the version, and pushes
// the result first to partition 0's leader *under the new map* — that
// push is the serialisation point: ESTALE there means another change got in
// first (and a transport error, that a failover is moving partition 0's
// lead), so the client re-reads the map, re-applies edit to what it finds
// and tries again. Every edit therefore lands on the newest map, never on
// one read at the start of a long operation — AddFMS's closing edit cannot
// undo a failover that happened during its drain. Because the outcome of a
// push that failed in transit is unknown, edit may be re-applied to a map
// that already holds its change and must then leave it alone.
//
// Once serialised, the map goes to everyone else. The other partition
// leaders and every FMS of FMS ∪ Prev must take it (the ownership guard
// and routing depend on them); DMS followers and object stores are
// best-effort, each attempt bounded by OpTimeout or, when unset,
// partition.DefaultRepTimeout — a follower that misses a push pulls the map
// from its leader when it next catches up, and a promotion is itself a
// full-map push. The addresses that were not reached are returned.
func (c *Client) changeMap(oc opCtx, edit func(*wire.ClusterMap) error) (*wire.ClusterMap, []string, error) {
	var lastErr error
	for attempt := 0; attempt < changeMapAttempts; attempt++ {
		next := c.Map().Clone()
		if err := edit(next); err != nil {
			return nil, nil, err
		}
		next.Ver++
		lead := next.Leader(0)
		err := c.pushMap(oc, lead, next, wire.DMSCoords(0, 0))
		if err == nil {
			// Serialised: next is the cluster's map now, whoever else has
			// heard. Route by it before telling them, so the versions their
			// answers stamp do not send this client off refetching it.
			if err = c.installMap(next); err != nil {
				return nil, nil, err
			}
			unreached, err := c.pushRest(oc, next)
			if err != nil {
				return nil, unreached, fmt.Errorf("client: install map version %d: %w", next.Ver, err)
			}
			return next, unreached, nil
		}
		lastErr = fmt.Errorf("dms %s: %w", lead, err)
		if wire.StatusOf(err) != wire.StatusStale {
			// The leader is unreachable; give a failover in progress a
			// moment to install its successor before asking around.
			time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
		}
		c.refreshMap(oc, lead)
	}
	return nil, nil, fmt.Errorf("client: map change not serialised after %d attempts: %w", changeMapAttempts, lastErr)
}

// pushMap installs m on the server at addr, told its coordinates in m.
// ESTALE (the server already holds m or a newer map) comes back as the
// status error for the caller to judge.
func (c *Client) pushMap(oc opCtx, addr string, m *wire.ClusterMap, at wire.Coords) error {
	e, err := c.endpointAt(addr)
	if err != nil {
		return err
	}
	st, _, _, err := e.Call(oc, wire.OpSetMap, wire.EncodeSetMap(m, at))
	if err != nil {
		return err
	}
	return st.Err()
}

// pushRest delivers a serialised map to everyone but partition 0's leader;
// see changeMap for who must take it and who may miss it. The DMS groups
// come first, in map order, so partition 0's followers come before anyone
// else: any of them may be promoted to the serialisation point, and in this
// order a map some other server holds is a map every reachable replica of
// partition 0 holds.
//
// A receiver that must take m but cannot be reached may be a leader a
// failover is replacing. The client then re-reads the map: once a newer one
// is serialised, m's change is in it and that change's coordinator delivers
// it — the only way a receiver stops being one that must take the map — so
// the push counts as done and the receiver is listed in unreached.
// Otherwise it backs off and retries, as changeMap does at its
// serialisation point.
func (c *Client) pushRest(oc opCtx, m *wire.ClusterMap) (unreached []string, err error) {
	bound := c.res.timeout
	if bound <= 0 {
		bound = partition.DefaultRepTimeout
	}
	parent := oc.ctx
	if parent == nil {
		parent = context.Background()
	}
	// push installs m at addr; ESTALE there (it already holds m or a newer
	// map) is success. A best-effort receiver gets one bounded attempt and is
	// listed in unreached when that fails; a must-receiver is retried until a
	// newer map supersedes m, and its last failure ends the change.
	push := func(role, addr string, at wire.Coords, must bool) error {
		boc := oc
		if !must {
			var cancel context.CancelFunc
			boc.ctx, cancel = context.WithTimeout(parent, bound)
			defer cancel()
		}
		for attempt := 1; ; attempt++ {
			err := c.pushMap(boc, addr, m, at)
			if err == nil || wire.StatusOf(err) == wire.StatusStale {
				return nil
			}
			// A must-receiver's push is done once a newer map is serialised.
			if !must || c.refreshMap(oc, addr) == nil && c.Map().Ver > m.Ver {
				unreached = append(unreached, addr)
				return nil
			}
			if attempt == changeMapAttempts {
				return fmt.Errorf("%s %s: %w", role, addr, err)
			}
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
	}
	for pid, g := range m.Groups {
		for idx, addr := range g {
			if pid+idx == 0 {
				continue // partition 0's leader took it first
			}
			if err := push("dms", addr, wire.DMSCoords(uint32(pid), idx), idx == 0); err != nil {
				return unreached, err
			}
		}
	}
	pushed := make(map[string]bool)
	for _, set := range [2][]wire.Member{c.fmsSet(m), m.Prev} {
		for _, mm := range set {
			if !pushed[mm.Addr] {
				pushed[mm.Addr] = true
				if err := push("fms", mm.Addr, wire.FMSCoords(mm.ID), true); err != nil {
					return unreached, err
				}
			}
		}
	}
	for _, e := range c.oss {
		push("oss", e.addr, wire.FMSCoords(-1), false)
	}
	return unreached, nil
}

// DropDMSReplica removes the DMS replica at addr from its partition's group
// and pushes the successor map; dropping a leader promotes the replica next
// in its group. It returns the installed map and the best-effort receivers
// the push did not reach.
//
// Precondition (fencing): the replica at addr has stopped serving — it is
// dead or cut off from every client. A dropped leader that still answers
// clients holding the older map would accept mutations its successor never
// sees. Dropping partition 0's leader also moves changeMap's serialisation
// point: a change that leader accepted but had not pushed onward is lost
// with it, and its coordinator retries against the successor.
func (c *Client) DropDMSReplica(addr string) (m *wire.ClusterMap, unreached []string, err error) {
	if _, _, ok := c.Map().PartitionOf(addr); !ok {
		return nil, nil, fmt.Errorf("client: no DMS replica at %s in map version %d", addr, c.Map().Ver)
	}
	oc := c.startOp("DropDMSReplica")
	defer func() { oc.finish(err) }()
	return c.changeMap(oc, func(m *wire.ClusterMap) error {
		pid, idx, ok := m.PartitionOf(addr)
		if !ok {
			return nil // already dropped
		}
		if len(m.Groups[pid]) == 1 {
			return fmt.Errorf("client: %s is the last replica of DMS partition %d", addr, pid)
		}
		m.Groups[pid] = append(m.Groups[pid][:idx], m.Groups[pid][idx+1:]...)
		return nil
	})
}

// RebalanceReport summarizes one membership change.
type RebalanceReport struct {
	FromVer uint64 // map version the window was opened on
	ToVer   uint64 // map version the closing push installed
	Total   int    // files held by the outgoing set before the change
	Moved   int    // files relocated (installs at new owners)
	Passes  int    // scan passes across all sources until clean
	// Unreached lists the best-effort map receivers (DMS followers, object
	// stores) a push of this change did not reach; they catch up on their
	// own and were not waited for.
	Unreached []string
}

// AddFMS grows the FMS set by one server (ring ID id, reachable at addr)
// and migrates the ~1/n of keys the grown ring places on it. The ID must
// be new — ring IDs are stable for the life of the cluster and never
// reused.
func (c *Client) AddFMS(id int32, addr string) (*RebalanceReport, error) {
	return c.changeFMS(func(cur []wire.Member) ([]wire.Member, error) {
		for _, m := range cur {
			if m.ID == id && m.Addr != addr {
				return nil, fmt.Errorf("client: ring ID %d already in use by %s", id, m.Addr)
			} else if m.ID == id {
				return cur, nil
			}
		}
		return append(append([]wire.Member{}, cur...), wire.Member{ID: id, Addr: addr}), nil
	})
}

// RemoveFMS shrinks the FMS set by the server with ring ID id, first
// draining every file it holds to the survivors. The server itself keeps
// running (it serves dual-reads until the window closes); shutting it down
// is the operator's call once the change reports success.
func (c *Client) RemoveFMS(id int32) (*RebalanceReport, error) {
	found := false
	for _, m := range c.fmsSet(c.Map()) {
		found = found || m.ID == id
	}
	if !found {
		return nil, fmt.Errorf("client: no FMS with ring ID %d", id)
	}
	return c.changeFMS(func(cur []wire.Member) ([]wire.Member, error) {
		next := make([]wire.Member, 0, len(cur))
		for _, m := range cur {
			if m.ID != id {
				next = append(next, m)
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("client: cannot remove the last FMS")
		}
		return next, nil
	})
}

// changeFMS runs the three-step membership change to the FMS set change
// derives from whatever set the newest map holds.
func (c *Client) changeFMS(change func(cur []wire.Member) ([]wire.Member, error)) (rep *RebalanceReport, err error) {
	oc := c.startOp("ChangeFMS")
	defer func() { oc.finish(err) }()
	rep = &RebalanceReport{}

	// Step 1: open the migration window.
	open, unreached, err := c.changeMap(oc, func(m *wire.ClusterMap) error {
		cur := c.fmsSet(m)
		next, err := change(cur)
		if err != nil || len(next) == len(cur) {
			return err // refused, or m already holds this change
		}
		if len(m.Prev) > 0 {
			return fmt.Errorf("client: map version %d already has a migration window open", m.Ver)
		}
		m.FMS, m.Prev = next, cur
		return nil
	})
	if err != nil {
		return rep, err
	}
	rep.FromVer, rep.Unreached = open.Ver-1, unreached
	cur, next := open.Prev, open.FMS

	// The next ring, for grouping moved files by destination.
	ids := wire.RingIDs(next)
	addrByID := make(map[int]string, len(next))
	for _, m := range next {
		addrByID[int(m.ID)] = m.Addr
	}
	ring := chash.NewRing(0, ids...)

	// Pre-pass: record how many files the outgoing set holds before any
	// migration, so Moved/Total measures the migrated fraction cleanly.
	for _, src := range cur {
		_, total, _, err := c.migrateScan(oc, src, ids, 1)
		if err != nil {
			return rep, err
		}
		rep.Total += total
	}

	// Step 2: drain every source until a scan comes back clean.
	migrated := c.telem.Reg.Counter(MetricMigratedKeys)
	for _, src := range cur {
		for {
			rep.Passes++
			moved, _, more, err := c.migrateScan(oc, src, ids, migrateScanLimit)
			if err != nil {
				return rep, err
			}
			if len(moved) == 0 && !more {
				break
			}
			byDest := make(map[string][]movedFile)
			for _, f := range moved {
				dest := addrByID[ring.Locate(fms.FileKey(f.dir, f.name))]
				byDest[dest] = append(byDest[dest], f)
			}
			for dest, files := range byDest {
				if err := c.migrateApply(oc, dest, wire.OpMigrateInstall, files); err != nil {
					return rep, fmt.Errorf("client: install at %s: %w", dest, err)
				}
			}
			if err := c.migrateApply(oc, src.Addr, wire.OpMigrateDelete, moved); err != nil {
				return rep, fmt.Errorf("client: retire at %s: %w", src.Addr, err)
			}
			rep.Moved += len(moved)
			migrated.Add(uint64(len(moved)))
			c.telem.Emit(obs.KindMigration, "drain", oc.tid, int64(len(moved)), src.Addr)
		}
	}

	// Step 3: close the window, on whatever the map has become meanwhile.
	closed, unreached, err := c.changeMap(oc, func(m *wire.ClusterMap) error {
		m.Prev = nil
		return nil
	})
	if err != nil {
		return rep, err
	}
	rep.ToVer, rep.Unreached = closed.Ver, append(rep.Unreached, unreached...)
	return rep, nil
}

// movedFile is one exported file in coordinator hands: its placement key
// plus the exported metadata bytes, which install at the destination and
// guard the conditional delete at the source.
type movedFile struct {
	dir     uuid.UUID
	name    string
	access  []byte
	content []byte
}

// migrateScan asks src which of its files the next ring (ids) places
// elsewhere, up to limit per call.
func (c *Client) migrateScan(oc opCtx, src wire.Member, ids []int, limit int) (moved []movedFile, total int, more bool, err error) {
	e, err := c.endpointAt(src.Addr)
	if err != nil {
		return nil, 0, false, err
	}
	enc := wire.NewEnc().I64(int64(src.ID)).U32(uint32(len(ids)))
	for _, id := range ids {
		enc.I64(int64(id))
	}
	body := enc.U32(uint32(limit)).Bytes()
	st, resp, _, err := e.Call(oc, wire.OpMigrateScan, body)
	if err != nil {
		return nil, 0, false, err
	}
	if st != wire.StatusOK {
		return nil, 0, false, st.Err()
	}
	d := wire.NewDec(resp)
	total = int(d.U32())
	n := d.Count(uuid.Size + 4 + 4 + 4) // a UUID, an empty name and two empty blobs
	moved = make([]movedFile, 0, n)
	for i := 0; i < n; i++ {
		moved = append(moved, movedFile{dir: d.UUID(), name: d.Str(), access: d.Blob(), content: d.Blob()})
	}
	more = d.Bool()
	if d.Err() != nil {
		return nil, 0, false, d.Err()
	}
	return moved, total, more, nil
}

// migrateApply sends one install or delete per file to addr in one send,
// and reports the first file the server refused.
func (c *Client) migrateApply(oc opCtx, addr string, op wire.Op, files []movedFile) error {
	e, err := c.endpointAt(addr)
	if err != nil {
		return err
	}
	subs, resps := make([]wire.SubReq, len(files)), make([]wire.SubResp, len(files))
	for i, f := range files {
		subs[i] = wire.SubReq{Op: op, Body: wire.NewEnc().UUID(f.dir).Str(f.name).Blob(f.access).Blob(f.content).Bytes()}
	}
	if _, err := e.send(oc, subs, resps); err != nil {
		return err
	}
	for _, r := range resps {
		if r.Status != wire.StatusOK {
			return r.Status.Err()
		}
	}
	return nil
}
