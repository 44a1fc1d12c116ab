package client

// DMS partition routing (DESIGN.md §16). The DMS splits the directory
// namespace into subtree range partitions, each a replicated group whose
// leader serves that range's operations. The client holds the versioned
// partition map (wire.PartMap) and routes every DMS request before dialing:
// path → partition (deepest-cut match) → leader endpoint. A lone DMS is the
// solo map — version 0, one group holding only the bootstrap address — which
// Dial installs before any request, so there is always a map to route by.
//
// Map staleness is learned two ways, mirroring the FMS membership epoch
// protocol (view.go): passively, from the partition-map version stamped on
// every response header (wire.Msg.PMap → observePMap → async refresh), and
// actively, when a request trips over the change — an explicit EWRONGPART
// from a node that does not own the path under its installed map, or a
// transport error from a leader that died. Both trigger a synchronous
// refetch (OpGetPartMap, answered by any replica) and a bounded retry.
// Mutations retried across a failover carry the same dedup request id, so a
// mutation that committed before the crash replays its recorded response
// from the new leader's replicated applied table instead of executing
// twice.

import (
	"fmt"
	"time"

	"locofs/internal/wire"
)

// dmsRouteAttempts bounds the route-refresh-retry loop: first try, plus
// retries after map refreshes triggered by EWRONGPART or a dead leader.
const dmsRouteAttempts = 4

// onlyRoute reports whether pm offers exactly one DMS address: a request
// that failed against it has nowhere else to go, so refreshing the map and
// retrying would only repeat the failure.
func onlyRoute(pm *wire.PartMap) bool {
	return len(pm.Groups) == 1 && len(pm.Groups[0]) == 1
}

// observePMap receives the partition-map version stamped on every response
// header and kicks off one asynchronous map refresh when the installed map
// has fallen behind — the passive path by which clients notice a failover
// within about one round trip. A solo DMS never stamps a version (its map is
// version 0), so its clients never pay anything here.
func (c *Client) observePMap(ver uint64) {
	if ver > c.pmap.Load().Ver && c.pmRefreshing.CompareAndSwap(false, true) {
		go func() {
			defer c.pmRefreshing.Store(false)
			c.refreshPartMap(opCtx{}, "")
		}()
	}
}

// bootstrap aligns a freshly dialed client with the cluster: the partition
// map and the FMS membership, both asked of the bootstrap endpoint in one
// batched round trip on every topology. A solo DMS serves its version-0 map,
// which never beats the one the client started from; a static topology
// serves no membership (ENOENT) and the configured FMS list stands. Doing
// this synchronously means the first workload response never triggers a
// background refresh, which keeps per-operation trip counts deterministic.
func (c *Client) bootstrap(boot *endpoint) error {
	// The answers' own headers carry the epoch and map version being
	// fetched; holding both latches keeps observeEpoch and observePMap from
	// answering them with a redundant background fetch.
	c.refreshing.Store(true)
	c.pmRefreshing.Store(true)
	defer c.refreshing.Store(false)
	defer c.pmRefreshing.Store(false)
	if c.disableBatch {
		if err := c.refreshPartMap(opCtx{}, ""); err != nil {
			return fmt.Errorf("client: fetch partition map: %w", err)
		}
		if err := c.refreshView(opCtx{}); err != nil {
			return fmt.Errorf("client: fetch membership: %w", err)
		}
		return nil
	}
	resps, _, err := boot.CallBatch(opCtx{}, []wire.SubReq{{Op: wire.OpGetPartMap}, {Op: wire.OpGetMembership}})
	if err != nil {
		return fmt.Errorf("client: bootstrap from %s: %w", boot.addr, err)
	}
	if st := resps[0].Status; st != wire.StatusOK {
		return fmt.Errorf("client: partition map from %s: %w", boot.addr, st.Err())
	}
	pm, err := wire.DecodePartMap(resps[0].Body)
	if err != nil {
		return fmt.Errorf("client: partition map from %s: %w", boot.addr, err)
	}
	c.installPartMap(pm)
	if err := c.installMembershipResp(resps[1].Status, resps[1].Body); err != nil {
		return fmt.Errorf("client: membership from %s: %w", boot.addr, err)
	}
	return nil
}

// MetricPMapSuppressed counts partition-map fetches coalesced into a
// concurrent one: callers that queued behind an in-flight fetch and reused
// its result instead of issuing their own (single-flight, mirroring the
// membership epoch refresh).
const MetricPMapSuppressed = "locofs_client_pmap_refresh_suppressed_total"

// refreshPartMap fetches the partition map and installs it if newer than
// the installed one. Fetches are single-flight: concurrent callers — a
// failover trips every in-flight request at once with EWRONGPART or a
// dead-leader transport error — queue behind the running fetch and return
// when it completes, reusing its freshly installed map instead of each
// issuing their own OpGetPartMap storm. Candidates are tried in order:
// every replica of the installed map (leaders first — they are
// known-recent), then the bootstrap endpoint; avoid (a just-failed leader
// address) is demoted to last. The first decodable map wins (a solo DMS's
// version-0 map never beats the installed one, so it changes nothing).
func (c *Client) refreshPartMap(oc opCtx, avoid string) error {
	gen := c.pmFetchGen.Load()
	c.pmapFetchMu.Lock()
	defer c.pmapFetchMu.Unlock()
	if c.pmFetchGen.Load() != gen {
		// A fetch completed while this caller queued for the lock: its
		// installed result is as fresh as a new fetch would be.
		c.telem.reg.Counter(MetricPMapSuppressed).Inc()
		return nil
	}
	defer c.pmFetchGen.Add(1)
	type cand struct {
		addr string
		pid  uint32
	}
	var cands []cand
	seen := map[string]bool{}
	add := func(addr string, pid uint32) {
		if addr != "" && !seen[addr] {
			seen[addr] = true
			cands = append(cands, cand{addr, pid})
		}
	}
	pm := c.pmap.Load()
	for pid, g := range pm.Groups {
		if len(g) > 0 {
			add(g[0], uint32(pid))
		}
	}
	for pid, g := range pm.Groups {
		for _, a := range g[min(1, len(g)):] {
			add(a, uint32(pid))
		}
	}
	add(c.dmsAddr, 0)
	// Demote the failed address: it stays a candidate (it may be the only
	// one) but everything else is asked first.
	for i, cd := range cands {
		if cd.addr == avoid && len(cands) > 1 {
			cands = append(append(cands[:i:i], cands[i+1:]...), cd)
			break
		}
	}
	var lastErr error
	for _, cd := range cands {
		e, err := c.dmsEndpointAt(cd.addr, cd.pid)
		if err != nil {
			lastErr = err
			continue
		}
		st, resp, err := e.CallT(oc, wire.OpGetPartMap, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if st != wire.StatusOK {
			lastErr = st.Err()
			continue
		}
		pm, err := wire.DecodePartMap(resp)
		if err != nil {
			lastErr = err
			continue
		}
		c.installPartMap(pm)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: no partition map source")
	}
	return lastErr
}

// installPartMap swaps in pm unless an equal-or-newer map is installed.
func (c *Client) installPartMap(pm *wire.PartMap) {
	if len(pm.Groups) == 0 {
		return
	}
	c.pmapMu.Lock()
	defer c.pmapMu.Unlock()
	if pm.Ver <= c.pmap.Load().Ver {
		return
	}
	c.pmap.Store(pm)
}

// dmsEndpointAt returns the connection to the DMS replica at addr, dialing
// it on first use. pid binds the endpoint's OnLease hook to the partition's
// recall-sequence source; an address serves one partition for its lifetime
// (failovers promote within a group, they never move an address across
// groups), so the binding is stable.
func (c *Client) dmsEndpointAt(addr string, pid uint32) (*endpoint, error) {
	c.dmsEpMu.Lock()
	defer c.dmsEpMu.Unlock()
	if e, ok := c.dmsEps[addr]; ok {
		return e, nil
	}
	e, err := c.dialDMSPart(addr, pid)
	if err != nil {
		return nil, err
	}
	c.dmsEps[addr] = e
	return e, nil
}

// dmsEndpoints snapshots every DMS connection ever dialed (for Close,
// Trips, Cost).
func (c *Client) dmsEndpoints() []*endpoint {
	c.dmsEpMu.Lock()
	defer c.dmsEpMu.Unlock()
	out := make([]*endpoint, 0, len(c.dmsEps))
	for _, e := range c.dmsEps {
		out = append(out, e)
	}
	return out
}

// routeDMS resolves the DMS endpoint and recall source for a cleaned path:
// the leader of the partition owning the path's metadata — or, with list
// set, the path's subdir listing (a cut directory's inode and listing live
// on different partitions, see wire.PartMap.LocateList).
func (c *Client) routeDMS(path string, list bool) (*endpoint, uint32, error) {
	pm := c.pmap.Load()
	var pid uint32
	if list {
		pid = pm.LocateList(path)
	} else {
		pid = pm.Locate(path)
	}
	addr := pm.Leader(pid)
	if addr == "" {
		return nil, pid, wire.StatusUnavailable.Err()
	}
	e, err := c.dmsEndpointAt(addr, pid)
	if err != nil {
		return nil, pid, err
	}
	return e, pid, nil
}

// dmsCall issues one DMS request routed by path, retrying through map
// refreshes on EWRONGPART (stale routing) and on transport errors (dead
// leader) up to dmsRouteAttempts times. Non-idempotent requests carry one
// dedup id across every attempt and every endpoint, so a mutation is
// executed at most once cluster-wide no matter where the retries land. The
// returned source is the partition that served the final attempt — the key
// for the caller's cache accounting.
func (c *Client) dmsCall(oc opCtx, path string, list bool, op wire.Op, body []byte) (wire.Status, []byte, uint32, error) {
	st, resp, _, _, src, err := c.dmsCallV(oc, path, list, op, body)
	return st, resp, src, err
}

// dmsCallV is dmsCall returning the call's modeled time and the endpoint
// that served it (for follow-up calls that must stick to one server, e.g.
// listing pagination).
func (c *Client) dmsCallV(oc opCtx, path string, list bool, op wire.Op, body []byte) (wire.Status, []byte, time.Duration, *endpoint, uint32, error) {
	var req uint64
	if !op.Idempotent() {
		req = c.res.nextReq()
	}
	var (
		st   wire.Status
		resp []byte
		virt time.Duration
		e    *endpoint
		src  uint32
		err  error
	)
	for attempt := 0; attempt < dmsRouteAttempts; attempt++ {
		var rerr error
		e, src, rerr = c.routeDMS(path, list)
		if rerr != nil {
			c.refreshPartMap(oc, "")
			err = rerr
			continue
		}
		st, resp, virt, err = e.callV(oc, op, body, req)
		if err != nil {
			if onlyRoute(c.pmap.Load()) {
				return st, resp, virt, e, src, err
			}
			c.refreshPartMap(oc, e.addr)
			continue
		}
		if st == wire.StatusWrongPartition {
			c.refreshPartMap(oc, "")
			continue
		}
		return st, resp, virt, e, src, nil
	}
	return st, resp, virt, e, src, err
}

// dmsBatch issues one batched DMS request routed by path, with the same
// refresh-and-retry loop as dmsCall (batches carry only idempotent
// sub-requests, so whole-batch retries are safe). A batch any of whose
// sub-responses reports EWRONGPART is retried wholesale after a refresh.
func (c *Client) dmsBatch(oc opCtx, path string, list bool, subs []wire.SubReq) ([]wire.SubResp, uint32, error) {
	var (
		resps []wire.SubResp
		src   uint32
		err   error
	)
	for attempt := 0; attempt < dmsRouteAttempts; attempt++ {
		var e *endpoint
		var rerr error
		e, src, rerr = c.routeDMS(path, list)
		if rerr != nil {
			c.refreshPartMap(oc, "")
			err = rerr
			continue
		}
		resps, _, err = e.CallBatch(oc, subs)
		if err != nil {
			if onlyRoute(c.pmap.Load()) {
				return resps, src, err
			}
			c.refreshPartMap(oc, e.addr)
			continue
		}
		wrong := false
		for _, r := range resps {
			if r.Status == wire.StatusWrongPartition {
				wrong = true
				break
			}
		}
		if !wrong {
			return resps, src, nil
		}
		c.refreshPartMap(oc, "")
	}
	if err == nil {
		err = wire.StatusWrongPartition.Err()
	}
	return resps, src, err
}
