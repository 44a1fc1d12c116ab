package client

// Epoch-versioned FMS routing (§3.1 placement under online membership
// change). The client's picture of the FMS fleet is an immutable fmsView
// swapped atomically when a newer membership epoch is learned, so the hot
// path routes with one pointer load and no locks.
//
// How a client learns about a change: every server response carries the
// server's current membership epoch in the wire header, and the endpoint
// layer funnels it into observeEpoch. An epoch newer than the installed
// view triggers a membership fetch from the DMS (asynchronously on
// observation, synchronously when an operation actually trips over the
// change via ESTALE or a suspicious ENOENT), and the fetched membership is
// installed as a fresh view.
//
// While the coordinator's migration window is open the membership carries
// the outgoing set in Prev and the view routes with dual-read semantics:
// the new owner is asked first, and on ENOENT the previous owner is asked
// with the same request — a key that has not migrated yet is still served,
// so no existing file ever reads as missing during the window. Mutations
// follow the same path: applied at the previous owner they are carried
// forward by the coordinator's conditional-delete/re-export loop (see
// internal/fms MigrateDelete).

import (
	"fmt"

	"locofs/internal/chash"
	"locofs/internal/fms"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// fmsMember is one FMS in a view: its stable ring ID and live endpoint.
type fmsMember struct {
	id int32
	ep *endpoint
}

// fmsView is one immutable routing epoch: the current FMS set with its
// ring, plus — while a migration window is open — the previous set and
// ring for dual-read fallback.
type fmsView struct {
	epoch    uint64
	cur      []fmsMember
	ring     *chash.Ring
	prev     []fmsMember // non-empty only while the migration window is open
	prevRing *chash.Ring
}

// window reports whether the migration window is open in this view.
func (v *fmsView) window() bool { return len(v.prev) > 0 }

// byID returns the member with ring ID id from ms, or nil.
func byID(ms []fmsMember, id int) *endpoint {
	for i := range ms {
		if int(ms[i].id) == id {
			return ms[i].ep
		}
	}
	return nil
}

// owner returns the endpoint the current ring places key on.
func (v *fmsView) owner(key []byte) *endpoint {
	return byID(v.cur, v.ring.Locate(key))
}

// prevOwner returns the previous ring's owner of key, or nil when no
// window is open.
func (v *fmsView) prevOwner(key []byte) *endpoint {
	if v.prevRing == nil {
		return nil
	}
	return byID(v.prev, v.prevRing.Locate(key))
}

// endpoints returns the union of current and previous endpoints, deduped —
// the fan-out set for operations that must see every server possibly
// holding files (readdir, rmdir probes) during a migration window.
func (v *fmsView) endpoints() []*endpoint {
	out := make([]*endpoint, 0, len(v.cur)+len(v.prev))
	for _, m := range v.cur {
		out = append(out, m.ep)
	}
	for _, m := range v.prev {
		dup := false
		for _, e := range out {
			if e == m.ep {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, m.ep)
		}
	}
	return out
}

// fmsEndpoint returns the connection to addr, dialing it on first use. The
// registry is keyed by address so a server appearing in several epochs (or
// in both the current and previous set) shares one connection; endpoints
// are closed only by Client.Close, because a server leaving the ring still
// serves dual-reads until its window closes.
func (c *Client) fmsEndpoint(addr string) (*endpoint, error) {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	if e, ok := c.eps[addr]; ok {
		return e, nil
	}
	e, err := c.dialFMS(addr)
	if err != nil {
		return nil, err
	}
	c.eps[addr] = e
	return e, nil
}

// fmsEndpoints snapshots every FMS connection ever dialed (for Close,
// Trips, Cost).
func (c *Client) fmsEndpoints() []*endpoint {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	out := make([]*endpoint, 0, len(c.eps))
	for _, e := range c.eps {
		out = append(out, e)
	}
	return out
}

// observeEpoch is called by the endpoint layer for every response carrying
// a non-zero membership epoch. It keeps maxEpoch at the highest epoch seen
// and kicks off one asynchronous membership refresh when the installed
// view has fallen behind — so clients converge on a new membership within
// roughly one round trip of its installation, without any push channel.
func (c *Client) observeEpoch(e uint64) {
	for {
		cur := c.maxEpoch.Load()
		if e <= cur {
			break
		}
		if c.maxEpoch.CompareAndSwap(cur, e) {
			break
		}
	}
	if v := c.view.Load(); v != nil && e > v.epoch && c.refreshing.CompareAndSwap(false, true) {
		go func() {
			defer c.refreshing.Store(false)
			c.refreshView(opCtx{})
		}()
	}
}

// refreshView fetches the cluster membership from the DMS and installs it.
func (c *Client) refreshView(oc opCtx) error {
	// Mark the refresh in flight for its whole duration (unless a caller
	// already did): the fetch's own response carries the new epoch before
	// the view is installed, and without the flag observeEpoch would spawn
	// a second, redundant background refresh.
	if c.refreshing.CompareAndSwap(false, true) {
		defer c.refreshing.Store(false)
	}
	// Membership lives on partition 0 (the residual partition, which owns
	// the root); routing there like any directory op means the fetch
	// survives a leader failover.
	st, resp, _, err := c.dmsCall(oc, "/", false, wire.OpGetMembership, nil)
	if err != nil {
		return err
	}
	return c.installMembershipResp(st, resp)
}

// installMembershipResp installs the membership an OpGetMembership response
// carries. A cluster with no membership pushed (static topology) reports
// ENOENT; that is not an error, there is simply nothing to install.
func (c *Client) installMembershipResp(st wire.Status, resp []byte) error {
	if st == wire.StatusNotFound {
		return nil
	}
	if st != wire.StatusOK {
		return st.Err()
	}
	m, err := wire.DecodeMembership(resp)
	if err != nil {
		return err
	}
	return c.installView(m)
}

// installView swaps in a view built from m, unless an equal-or-newer view
// is already installed. Installs are serialized so two concurrent
// refreshes cannot regress the view.
func (c *Client) installView(m *wire.Membership) error {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	if cur := c.view.Load(); cur != nil && m.Epoch <= cur.epoch {
		return nil
	}
	build := func(members []wire.Member) ([]fmsMember, *chash.Ring, error) {
		if len(members) == 0 {
			return nil, nil, nil
		}
		ms := make([]fmsMember, 0, len(members))
		ids := make([]int, 0, len(members))
		for _, mm := range members {
			ep, err := c.fmsEndpoint(mm.Addr)
			if err != nil {
				return nil, nil, fmt.Errorf("client: dial FMS %s: %w", mm.Addr, err)
			}
			ms = append(ms, fmsMember{id: mm.ID, ep: ep})
			ids = append(ids, int(mm.ID))
		}
		ring := chash.NewRing(0, ids...)
		return ms, ring, nil
	}
	cur, ring, err := build(m.FMS)
	if err != nil {
		return err
	}
	if ring == nil {
		return wire.StatusInval.Err()
	}
	ring.SetEpoch(m.Epoch)
	prev, prevRing, err := build(m.Prev)
	if err != nil {
		return err
	}
	c.view.Store(&fmsView{epoch: m.Epoch, cur: cur, ring: ring, prev: prev, prevRing: prevRing})
	return nil
}

// fmsCallAttempts bounds the route-refresh-retry loop in fmsCall: first
// try, one retry after a dual-read fallback refresh, one after an ESTALE
// refresh.
const fmsCallAttempts = 3

// fmsCall issues one per-file FMS request for (dir, name) under the
// elasticity protocol:
//
//   - The current view's owner is asked first — on a static topology this
//     is exactly the old fmsFor routing, zero extra cost.
//   - ENOENT with a migration window open falls back to the previous
//     owner: a key that has not migrated yet is still fully served
//     (reads and mutations alike — a mutation landing at the old owner is
//     carried forward by the coordinator's conditional-delete/re-export
//     loop, so it is never lost).
//   - ENOENT while a newer epoch than the view's has been observed on the
//     wire triggers a synchronous membership refresh and a retry: the
//     file may live on a server this view does not know about yet.
//   - ESTALE (the server's ownership guard refusing a misrouted create)
//     triggers the same refresh-and-retry.
//
// The loop is bounded; when retries are exhausted the last status stands.
func (c *Client) fmsCall(oc opCtx, dir uuid.UUID, name string, op wire.Op, body []byte) (wire.Status, []byte, error) {
	key := fms.FileKey(dir, name)
	var st wire.Status
	var resp []byte
	var err error
	for attempt := 0; attempt < fmsCallAttempts; attempt++ {
		v := c.view.Load()
		st, resp, err = v.owner(key).CallT(oc, op, body)
		if err != nil {
			return st, resp, err
		}
		switch st {
		case wire.StatusNotFound:
			if pe := v.prevOwner(key); pe != nil && pe != v.owner(key) {
				pst, presp, perr := pe.CallT(oc, op, body)
				if perr != nil {
					return pst, presp, perr
				}
				if pst != wire.StatusNotFound {
					return pst, presp, nil
				}
				// Double miss with the window open: the key may have
				// completed its move between the two reads (installed at
				// the new owner after we asked it, then retired at the
				// source before we asked there). A copy always exists at
				// one of the two — install strictly precedes the source
				// delete — so re-asking the primary resolves it. Loop; a
				// genuinely missing file just burns the bounded attempts.
				continue
			}
			// Neither owner has it. If the wire has shown us a newer epoch
			// than this view's, our routing may simply be stale — refresh
			// and re-route before believing the ENOENT.
			if c.maxEpoch.Load() > v.epoch {
				if c.refreshView(oc) == nil && c.view.Load().epoch > v.epoch {
					continue
				}
			}
			return st, resp, nil
		case wire.StatusStale:
			if c.refreshView(oc) != nil || c.view.Load().epoch == v.epoch {
				return st, resp, nil // refresh failed or made no progress
			}
			continue
		}
		return st, resp, nil
	}
	return st, resp, err
}
