package client

// Map-versioned routing (DESIGN.md §12). The client's picture of the
// cluster is an immutable view built from one wire.ClusterMap — DMS
// partition routing, the FMS ring and, while a migration window is open,
// the previous FMS ring — swapped atomically when a newer map version is
// learned, so the hot path routes with one pointer load and no locks.
//
// How a client learns about a change: every server response carries the
// version of the map that server holds in the wire header, and the endpoint
// layer funnels it into observeMap. A version newer than the installed
// view's triggers a map fetch (OpGetMap, answered by any server) —
// asynchronously on observation, synchronously when an operation actually
// trips over the change (ESTALE, EWRONGPART, a dead leader, a suspicious
// ENOENT) — and the fetched map is installed as a fresh view.
//
// While the coordinator's migration window is open the map carries the
// outgoing FMS set in Prev and the view routes with dual-read semantics:
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

// view is one immutable routing picture: the map it was built from, the
// partition each DMS replica address serves (the lease-recall source its
// responses are booked to), the current FMS set with its ring and — while a
// migration window is open — the previous set and ring for dual-read
// fallback.
type view struct {
	m        *wire.ClusterMap
	src      map[string]uint32
	cur      []fmsMember
	ring     *chash.Ring
	prev     []fmsMember // non-empty only while the migration window is open
	prevRing *chash.Ring
	// fms is the union of the current and previous endpoints, deduped — the
	// fan-out set for operations that must see every server possibly holding
	// files (readdir, rmdir probes) during a migration window.
	fms []*endpoint
}

// window reports whether the migration window is open in this view.
func (v *view) window() bool { return len(v.prev) > 0 }

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
func (v *view) owner(key []byte) *endpoint {
	return byID(v.cur, v.ring.Locate(key))
}

// prevOwner returns the previous ring's owner of key, or nil when no
// window is open.
func (v *view) prevOwner(key []byte) *endpoint {
	if v.prevRing == nil {
		return nil
	}
	return byID(v.prev, v.prevRing.Locate(key))
}

// endpointAt returns the connection to the server at addr (a DMS replica,
// an FMS or an OSS), dialing it on first use. The registry is keyed by address so a server
// appearing in several map versions (or in both the current and previous
// FMS set) shares one connection; endpoints are closed only by
// Client.Close, because a server leaving the map may still be answering
// in-flight calls or dual-reads.
func (c *Client) endpointAt(addr string) (*endpoint, error) {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	if e, ok := c.eps[addr]; ok {
		return e, nil
	}
	e, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	c.eps[addr] = e
	return e, nil
}

// endpoints snapshots every connection ever dialed (for Close, Trips, Cost).
func (c *Client) endpoints() []*endpoint {
	c.epMu.Lock()
	defer c.epMu.Unlock()
	out := make([]*endpoint, 0, len(c.eps))
	for _, e := range c.eps {
		out = append(out, e)
	}
	return out
}

// fmsSet returns the FMS set m stands for: its own, or — when it names none
// — the list this client was configured with.
func (c *Client) fmsSet(m *wire.ClusterMap) []wire.Member {
	if len(m.FMS) == 0 {
		return c.static
	}
	return m.FMS
}

// newView builds the routing picture of m, dialing FMS it has not met.
func (c *Client) newView(m *wire.ClusterMap) (*view, error) {
	v := &view{m: m, src: make(map[string]uint32)}
	for pid, g := range m.Groups {
		for _, a := range g {
			v.src[a] = uint32(pid)
		}
	}
	build := func(set []wire.Member) ([]fmsMember, *chash.Ring, error) {
		if len(set) == 0 {
			return nil, nil, nil
		}
		ms := make([]fmsMember, len(set))
		for i, mm := range set {
			ep, err := c.endpointAt(mm.Addr)
			if err != nil {
				return nil, nil, fmt.Errorf("client: dial FMS %s: %w", mm.Addr, err)
			}
			ms[i] = fmsMember{id: mm.ID, ep: ep}
		}
		return ms, chash.NewRing(0, wire.RingIDs(set)...), nil
	}
	var err error
	if v.cur, v.ring, err = build(c.fmsSet(m)); err != nil {
		return nil, err
	}
	if v.prev, v.prevRing, err = build(m.Prev); err != nil {
		return nil, err
	}
	seen := make(map[*endpoint]bool)
	for _, mm := range append(append([]fmsMember{}, v.cur...), v.prev...) {
		if !seen[mm.ep] {
			seen[mm.ep] = true
			v.fms = append(v.fms, mm.ep)
		}
	}
	return v, nil
}

// installMap swaps in a view built from m if m is strictly newer than the
// installed one — the one install rule every holder of the map follows — or
// nothing is installed yet. A map with no groups is the answer of a server
// nothing was installed on; it routes nowhere and is ignored.
func (c *Client) installMap(m *wire.ClusterMap) error {
	if cur := c.view.Load(); len(m.Groups) == 0 || (cur != nil && m.Ver <= cur.m.Ver) {
		return nil
	}
	nv, err := c.newView(m)
	if err != nil {
		return err
	}
	for {
		cur := c.view.Load()
		if (cur != nil && m.Ver <= cur.m.Ver) || c.view.CompareAndSwap(cur, nv) {
			return nil
		}
	}
}

// observeMap is called by the endpoint layer for every response carrying a
// non-zero map version. It keeps maxVer at the highest version seen and
// starts one asynchronous refresh when the installed view has fallen behind
// — so clients converge on a new map within roughly one round trip of its
// installation, without any push channel. A server nothing was installed on
// (a static topology, a solo DMS) stamps nothing, so its clients never pay
// anything here.
func (c *Client) observeMap(ver uint64) {
	for {
		cur := c.maxVer.Load()
		if ver <= cur || c.maxVer.CompareAndSwap(cur, ver) {
			break
		}
	}
	if v := c.view.Load(); v == nil || ver <= v.m.Ver {
		return
	}
	if done, _ := c.beginFetch(); done != nil {
		go func() {
			defer c.endFetch(done)
			// The fetch that installed ver may have ended between the check
			// above and the claim of the slot.
			if ver > c.Map().Ver {
				c.fetchMap(opCtx{}, "")
			}
		}()
	}
}

// bootstrap aligns a freshly dialed client with the cluster: one OpGetMap
// asked of the bootstrap address, on every topology. A lone DMS answers
// its version-0 solo map, which names it by no usable address, so the
// client routes by the solo map of the address it dialed; with no FMS set
// in the map the configured FMS list stands. Doing this synchronously —
// the view is nil until the map is in, so the answer's own stamp starts no
// background refresh — keeps per-operation trip counts deterministic.
func (c *Client) bootstrap() error {
	m, err := c.getMap(opCtx{}, c.dmsAddr)
	if err != nil {
		return fmt.Errorf("client: cluster map from %s: %w", c.dmsAddr, err)
	}
	if m.Ver == 0 || len(m.Groups) == 0 {
		m = wire.SoloMap(c.dmsAddr)
	}
	return c.installMap(m)
}

// getMap asks the server at addr for the cluster map it holds.
func (c *Client) getMap(oc opCtx, addr string) (*wire.ClusterMap, error) {
	e, err := c.endpointAt(addr)
	if err != nil {
		return nil, err
	}
	st, resp, _, err := e.Call(oc, wire.OpGetMap, nil)
	if err != nil {
		return nil, err
	}
	if st != wire.StatusOK {
		return nil, st.Err()
	}
	return wire.DecodeClusterMap(resp)
}

// MetricMapSuppressed counts map refreshes coalesced into a concurrent
// one: callers that found a fetch in flight and reused its result instead
// of issuing their own.
const MetricMapSuppressed = "locofs_client_map_refresh_suppressed_total"

// beginFetch claims the one map-fetch slot. It returns the channel the
// caller must hand to endFetch when its fetch is over, or — when a fetch is
// already running — nil and that fetch's channel to wait on.
func (c *Client) beginFetch() (mine, running chan struct{}) {
	c.fetchMu.Lock()
	defer c.fetchMu.Unlock()
	if c.fetching != nil {
		return nil, c.fetching
	}
	c.fetching = make(chan struct{})
	return c.fetching, nil
}

func (c *Client) endFetch(done chan struct{}) {
	c.fetchMu.Lock()
	c.fetching = nil
	c.fetchMu.Unlock()
	close(done)
}

// refreshMap fetches the cluster map and installs it if newer than the
// installed one. Fetches are single-flight: concurrent callers — a failover
// trips every in-flight request at once with EWRONGPART or a dead-leader
// transport error — wait for the running fetch and return when it
// completes, reusing its freshly installed map instead of each issuing
// their own OpGetMap storm.
func (c *Client) refreshMap(oc opCtx, avoid string) error {
	done, running := c.beginFetch()
	if done == nil {
		<-running
		c.telem.Reg.Counter(MetricMapSuppressed).Inc()
		return nil
	}
	defer c.endFetch(done)
	return c.fetchMap(oc, avoid)
}

// fetchMap asks the cluster for its map; the caller holds the fetch slot.
// Candidates are tried in order: every DMS replica of the installed map
// (leaders first — they are known-recent), then the bootstrap address;
// avoid (a just-failed leader address) is demoted to last. The first
// decodable map wins (a version-0 answer never beats the installed one, so
// it changes nothing).
func (c *Client) fetchMap(oc opCtx, avoid string) error {
	var cands []string
	seen := map[string]bool{}
	add := func(addr string) {
		if addr != "" && !seen[addr] {
			seen[addr] = true
			cands = append(cands, addr)
		}
	}
	m := c.Map()
	for pid := range m.Groups {
		add(m.Leader(uint32(pid)))
	}
	for _, g := range m.Groups {
		for _, a := range g[min(1, len(g)):] {
			add(a)
		}
	}
	add(c.dmsAddr)
	// Demote the failed address: it stays a candidate (it may be the only
	// one) but everything else is asked first.
	for i, a := range cands {
		if a == avoid && len(cands) > 1 {
			cands = append(append(cands[:i:i], cands[i+1:]...), a)
			break
		}
	}
	lastErr := fmt.Errorf("client: no cluster map source")
	for _, addr := range cands {
		m, err := c.getMap(oc, addr)
		if err != nil {
			lastErr = err
			continue
		}
		return c.installMap(m)
	}
	return lastErr
}

// fmsCallAttempts bounds the route-refresh-retry loop in fmsCall: first
// try, one retry after a dual-read fallback refresh, one after an ESTALE
// refresh.
const fmsCallAttempts = 3

// fmsCall issues one per-file FMS request for (dir, name) under the
// elasticity protocol:
//
//   - The current view's owner is asked first — on a static topology this
//     is plain consistent-hash routing, zero extra cost.
//   - ENOENT with a migration window open falls back to the previous
//     owner: a key that has not migrated yet is still fully served
//     (reads and mutations alike — a mutation landing at the old owner is
//     carried forward by the coordinator's conditional-delete/re-export
//     loop, so it is never lost).
//   - ENOENT while a newer map version than the view's has been observed
//     on the wire triggers a synchronous map refresh and a retry: the
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
		st, resp, _, err = v.owner(key).Call(oc, op, body)
		if err != nil {
			return st, resp, err
		}
		switch st {
		case wire.StatusNotFound:
			if pe := v.prevOwner(key); pe != nil && pe != v.owner(key) {
				pst, presp, _, perr := pe.Call(oc, op, body)
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
			// Neither owner has it. If the wire has shown us a newer map
			// than this view's, our routing may simply be stale — refresh
			// and re-route before believing the ENOENT.
			if c.maxVer.Load() > v.m.Ver {
				if c.refreshMap(oc, "") == nil && c.Map().Ver > v.m.Ver {
					continue
				}
			}
			return st, resp, nil
		case wire.StatusStale:
			if c.refreshMap(oc, "") != nil || c.Map().Ver == v.m.Ver {
				return st, resp, nil // refresh failed or made no progress
			}
			continue
		}
		return st, resp, nil
	}
	return st, resp, err
}
