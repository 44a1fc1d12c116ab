package client

// Online FMS membership change: the coordinator side of elasticity. A
// membership change runs entirely through public wire ops, so any client
// (including the locofsd admin CLI) can drive one against a live cluster:
//
//  1. Install the intermediate membership (epoch E+1) on every server:
//     the new FMS set with the outgoing set in Prev. From this moment the
//     migration window is open — servers stamp the new epoch on every
//     response, clients notice and switch to dual-read routing, and the
//     FMS create-guard refuses creates for keys it no longer owns.
//  2. Drain each outgoing-set server: scan for files the new ring places
//     elsewhere (OpMigrateScan), install them at their new owners
//     (OpMigrateInstall, batched per destination over wire.OpBatch), then
//     conditionally delete the source copies (OpMigrateDelete, batched).
//     A source copy mutated after its export is left in place and picked
//     up by the next scan pass; the loop runs until a scan comes back
//     clean, so no concurrent update is ever lost.
//  3. Install the final membership (epoch E+2) with an empty Prev,
//     closing the window.
//
// Only ~1/n of the keyspace moves on a grow (consistent hashing); the
// namespace stays fully readable throughout because reads fall back to
// the previous owner until the key has landed.

import (
	"fmt"

	"locofs/internal/chash"
	"locofs/internal/flight"
	"locofs/internal/fms"
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

// RebalanceReport summarizes one membership change.
type RebalanceReport struct {
	FromEpoch uint64 // membership epoch before the change
	ToEpoch   uint64 // final epoch (FromEpoch + 2)
	Total     int    // files held by the outgoing set before the change
	Moved     int    // files relocated (installs at new owners)
	Passes    int    // scan passes across all sources until clean
}

// ClusterMembership fetches the installed membership from the DMS, or nil
// when the cluster runs a static topology (none was ever installed).
func (c *Client) ClusterMembership() (*wire.Membership, error) {
	st, resp, _, err := c.dmsCall(opCtx{}, "/", false, wire.OpGetMembership, nil)
	if err != nil {
		return nil, err
	}
	if st == wire.StatusNotFound {
		return nil, nil
	}
	if st != wire.StatusOK {
		return nil, st.Err()
	}
	return wire.DecodeMembership(resp)
}

// currentMembership returns the cluster membership to base a change on:
// the DMS's installed one, or — bootstrapping a cluster that never ran
// the protocol — a synthetic epoch-0 membership from this client's static
// configuration.
func (c *Client) currentMembership() (*wire.Membership, error) {
	m, err := c.ClusterMembership()
	if err != nil || m != nil {
		return m, err
	}
	v := c.view.Load()
	m = &wire.Membership{}
	for _, mm := range v.cur {
		m.FMS = append(m.FMS, wire.Member{ID: mm.id, Addr: mm.ep.addr})
	}
	return m, nil
}

// AddFMS grows the FMS set by one server (ring ID id, reachable at addr)
// and migrates the ~1/n of keys the grown ring places on it. The ID must
// be new — ring IDs are stable for the life of the cluster and never
// reused.
func (c *Client) AddFMS(id int32, addr string) (*RebalanceReport, error) {
	cur, err := c.currentMembership()
	if err != nil {
		return nil, err
	}
	for _, m := range cur.FMS {
		if m.ID == id {
			return nil, fmt.Errorf("client: ring ID %d already in use by %s", id, m.Addr)
		}
	}
	next := append(append([]wire.Member{}, cur.FMS...), wire.Member{ID: id, Addr: addr})
	return c.changeFMS(cur, next)
}

// RemoveFMS shrinks the FMS set by the server with ring ID id, first
// draining every file it holds to the survivors. The server itself keeps
// running (it serves dual-reads until the window closes); shutting it down
// is the operator's call once the change reports success.
func (c *Client) RemoveFMS(id int32) (*RebalanceReport, error) {
	cur, err := c.currentMembership()
	if err != nil {
		return nil, err
	}
	next := make([]wire.Member, 0, len(cur.FMS))
	for _, m := range cur.FMS {
		if m.ID != id {
			next = append(next, m)
		}
	}
	if len(next) == len(cur.FMS) {
		return nil, fmt.Errorf("client: no FMS with ring ID %d", id)
	}
	if len(next) == 0 {
		return nil, fmt.Errorf("client: cannot remove the last FMS")
	}
	return c.changeFMS(cur, next)
}

// changeFMS runs the three-step membership change from cur to the next
// FMS set.
func (c *Client) changeFMS(cur *wire.Membership, next []wire.Member) (rep *RebalanceReport, err error) {
	oc := c.startOp("ChangeFMS")
	defer func() { oc.finish(err) }()
	rep = &RebalanceReport{FromEpoch: cur.Epoch, ToEpoch: cur.Epoch + 2}

	// Step 1: open the migration window.
	open := &wire.Membership{Epoch: cur.Epoch + 1, FMS: next, Prev: cur.FMS}
	if err := c.pushMembership(oc, open); err != nil {
		return rep, fmt.Errorf("client: install epoch %d: %w", open.Epoch, err)
	}

	// The next ring, for grouping moved files by destination.
	ids := make([]int, len(next))
	addrByID := make(map[int]string, len(next))
	for i, m := range next {
		ids[i] = int(m.ID)
		addrByID[int(m.ID)] = m.Addr
	}
	ring := chash.NewRing(0, ids...)

	// Pre-pass: record how many files the outgoing set holds before any
	// migration, so Moved/Total measures the migrated fraction cleanly.
	for _, src := range cur.FMS {
		_, total, _, err := c.migrateScan(oc, src, ids, 1)
		if err != nil {
			return rep, err
		}
		rep.Total += total
	}

	// Step 2: drain every source until a scan comes back clean.
	migrated := c.telem.reg.Counter(MetricMigratedKeys)
	for _, src := range cur.FMS {
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
			c.telem.fl.Emit(flight.KindMigration, "client", "drain", oc.tid, int64(len(moved)), src.Addr)
		}
	}

	// Step 3: close the window.
	closed := &wire.Membership{Epoch: cur.Epoch + 2, FMS: next}
	if err := c.pushMembership(oc, closed); err != nil {
		return rep, fmt.Errorf("client: install epoch %d: %w", closed.Epoch, err)
	}
	c.installView(closed)
	return rep, nil
}

// pushMembership installs m on every server: the DMS first (it is where
// clients refresh from) — every replica of every partition in the installed
// map, followers included, so whichever one a failover promotes already
// serves m — then every FMS in the union of m's current and previous sets
// (each told its own ring ID), then the object stores (epoch tracking only).
func (c *Client) pushMembership(oc opCtx, m *wire.Membership) error {
	push := func(e *endpoint, self int) error {
		st, _, err := e.CallT(oc, wire.OpSetMembership, wire.EncodeSetMembership(m, self))
		if err != nil {
			return err
		}
		// ESTALE means a newer epoch is already installed — another
		// coordinator won the race; this change must not proceed.
		return st.Err()
	}
	for pid, g := range c.pmap.Load().Groups {
		for _, addr := range g {
			e, err := c.dmsEndpointAt(addr, uint32(pid))
			if err == nil {
				err = push(e, -1)
			}
			if err != nil {
				return fmt.Errorf("dms %s: %w", addr, err)
			}
		}
	}
	pushed := make(map[string]bool, len(m.FMS)+len(m.Prev))
	for _, set := range [][]wire.Member{m.FMS, m.Prev} {
		for _, mm := range set {
			if pushed[mm.Addr] {
				continue
			}
			pushed[mm.Addr] = true
			e, err := c.fmsEndpoint(mm.Addr)
			if err != nil {
				return fmt.Errorf("fms %s: %w", mm.Addr, err)
			}
			if err := push(e, int(mm.ID)); err != nil {
				return fmt.Errorf("fms %s: %w", mm.Addr, err)
			}
		}
	}
	for _, e := range c.oss {
		if err := push(e, -1); err != nil {
			return fmt.Errorf("oss %s: %w", e.addr, err)
		}
	}
	return nil
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
	e, err := c.fmsEndpoint(src.Addr)
	if err != nil {
		return nil, 0, false, err
	}
	enc := wire.NewEnc().I64(int64(src.ID)).U32(0).U32(uint32(len(ids)))
	for _, id := range ids {
		enc.I64(int64(id))
	}
	body := enc.U32(uint32(limit)).Bytes()
	st, resp, err := e.CallT(oc, wire.OpMigrateScan, body)
	if err != nil {
		return nil, 0, false, err
	}
	if st != wire.StatusOK {
		return nil, 0, false, st.Err()
	}
	d := wire.NewDec(resp)
	total = int(d.U32())
	n := int(d.U32())
	moved = make([]movedFile, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		moved = append(moved, movedFile{dir: d.UUID(), name: d.Str(), access: d.Blob(), content: d.Blob()})
	}
	more = d.Bool()
	if d.Err() != nil {
		return nil, 0, false, d.Err()
	}
	return moved, total, more, nil
}

// migrateApply sends one install or delete per file to addr, packed into a
// single wire.OpBatch message (or serially with batching disabled).
func (c *Client) migrateApply(oc opCtx, addr string, op wire.Op, files []movedFile) error {
	e, err := c.fmsEndpoint(addr)
	if err != nil {
		return err
	}
	mkBody := func(f movedFile) []byte {
		return wire.NewEnc().UUID(f.dir).Str(f.name).Blob(f.access).Blob(f.content).Bytes()
	}
	if c.disableBatch || len(files) == 1 {
		for _, f := range files {
			st, _, err := e.CallT(oc, op, mkBody(f))
			if err != nil {
				return err
			}
			if st != wire.StatusOK {
				return st.Err()
			}
		}
		return nil
	}
	subs := make([]wire.SubReq, len(files))
	for i, f := range files {
		subs[i] = wire.SubReq{Op: op, Body: mkBody(f)}
	}
	resps, _, err := e.CallBatch(oc, subs)
	if err != nil {
		return err
	}
	for _, r := range resps {
		if r.Status != wire.StatusOK {
			return r.Status.Err()
		}
	}
	return nil
}
