package client

// DMS partition routing (DESIGN.md §16). The DMS splits the directory
// namespace into subtree range partitions, each a replicated group whose
// leader serves that range's operations. The client routes every DMS
// request by the cluster map in its view (view.go) before dialing: path →
// partition (deepest-cut match) → leader endpoint. A lone DMS is the solo
// map — version 0, one group holding only the bootstrap address — so there
// is always a map to route by.
//
// A request that trips over a map change — an explicit EWRONGPART from a
// node that does not own the path under its installed map, or a transport
// error from a leader that died — triggers a synchronous refreshMap and a
// bounded retry. Mutations retried across a failover carry the same dedup
// request id, so a mutation that committed before the crash replays its
// recorded response from the new leader's replicated applied table instead
// of executing twice.

import "locofs/internal/wire"

// dmsRouteAttempts bounds the route-refresh-retry loop: first try, plus
// retries after map refreshes triggered by EWRONGPART or a dead leader.
const dmsRouteAttempts = 4

// onlyRoute reports whether pm offers exactly one DMS address: a request
// that failed against it has nowhere else to go, so refreshing the map and
// retrying would only repeat the failure.
func onlyRoute(pm *wire.ClusterMap) bool {
	return len(pm.Groups) == 1 && len(pm.Groups[0]) == 1
}

// routeDMS resolves the DMS endpoint and recall source for a cleaned path:
// the leader of the partition owning the path's metadata — or, with list
// set, the path's subdir listing (a cut directory's inode and listing live
// on different partitions, see wire.ClusterMap.LocateList).
func (c *Client) routeDMS(path string, list bool) (*endpoint, uint32, error) {
	pm := c.Map()
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
	e, err := c.endpointAt(addr)
	return e, pid, err
}

// dmsCall issues one DMS request routed by path, retrying through map
// refreshes on EWRONGPART (stale routing) and on transport errors (dead
// leader) up to dmsRouteAttempts times. Non-idempotent requests carry one
// dedup id across every attempt and every endpoint, so a mutation is
// executed at most once cluster-wide no matter where the retries land. The
// returned source is the partition that served the final attempt — the key
// for the caller's cache accounting.
func (c *Client) dmsCall(oc opCtx, path string, list bool, op wire.Op, body []byte) (wire.Status, []byte, uint32, error) {
	var req uint64
	if !op.Idempotent() {
		req = c.res.nextReq()
	}
	var (
		st   wire.Status
		resp []byte
		src  uint32
		err  error
	)
	for attempt := 0; attempt < dmsRouteAttempts; attempt++ {
		var e *endpoint
		var rerr error
		e, src, rerr = c.routeDMS(path, list)
		if rerr != nil {
			c.refreshMap(oc, "")
			err = rerr
			continue
		}
		st, resp, _, err = e.Call(oc, op, body, req)
		if err != nil {
			if onlyRoute(c.Map()) {
				return st, resp, src, err
			}
			c.refreshMap(oc, e.addr)
			continue
		}
		if st == wire.StatusWrongPartition {
			c.refreshMap(oc, "")
			continue
		}
		return st, resp, src, nil
	}
	return st, resp, src, err
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
			c.refreshMap(oc, "")
			err = rerr
			continue
		}
		resps, _, err = e.CallBatch(oc, subs)
		if err != nil {
			if onlyRoute(c.Map()) {
				return resps, src, err
			}
			c.refreshMap(oc, e.addr)
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
		c.refreshMap(oc, "")
	}
	if err == nil {
		err = wire.StatusWrongPartition.Err()
	}
	return resps, src, err
}
