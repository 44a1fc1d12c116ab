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

// dms sends subs to the DMS leader that path routes to (see routeDMS for
// list) and returns one outcome per sub-request. It is the one routed DMS
// call: a transport error (dead leader) or an EWRONGPART on any sub-request
// (stale routing) triggers a map refresh and a whole-send retry, up to
// dmsRouteAttempts times — safe because a non-idempotent sub-request keeps
// the dedup id its first send stamped on it (see endpoint.send) across
// every attempt and every endpoint, so a mutation is executed at most once
// cluster-wide no matter where the retries land. The returned
// source is the partition that served the final attempt — the key for the
// caller's cache accounting. When the attempts run out the last outcome
// stands: the transport error, or the sub-statuses still saying EWRONGPART.
func (c *Client) dms(oc opCtx, path string, list bool, subs ...wire.SubReq) (resps []wire.SubResp, src uint32, err error) {
	resps = make([]wire.SubResp, len(subs))
	for attempt := 0; attempt < dmsRouteAttempts; attempt++ {
		var e *endpoint
		if e, src, err = c.routeDMS(path, list); err != nil {
			c.refreshMap(oc, "")
			continue
		}
		if _, err = e.send(oc, subs, resps); err != nil {
			if onlyRoute(c.Map()) {
				return nil, src, err
			}
			c.refreshMap(oc, e.addr)
			continue
		}
		wrong := false
		for _, r := range resps {
			wrong = wrong || r.Status == wire.StatusWrongPartition
		}
		if !wrong {
			return resps, src, nil
		}
		c.refreshMap(oc, "")
	}
	return resps, src, err
}

// dmsCall is dms for the single-request operations, unwrapped.
func (c *Client) dmsCall(oc opCtx, path string, list bool, op wire.Op, body []byte) (wire.Status, []byte, uint32, error) {
	resps, src, err := c.dms(oc, path, list, wire.SubReq{Op: op, Body: body})
	if err != nil {
		return wire.StatusIO, nil, src, err
	}
	return resps[0].Status, resps[0].Body, src, nil
}
