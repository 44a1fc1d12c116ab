package client

import (
	"time"

	"locofs/internal/wire"
)

// Lease coherence, client side (DESIGN.md §14). Every DMS response header
// carries the server's recall sequence (wire.Msg.Lease); observeLease feeds
// it into the cache's maxSeq watermark. When the watermark runs ahead of
// what the cache has applied, cached entries stop being served (they might
// be stale) and the next DMS round trip piggybacks an OpLeaseRecall fetch
// (withRecall) — so catching up costs zero extra trips. Mutation responses
// additionally carry a publication trailer (decodePub) letting the mutating
// client account for its own recalls without any fetch.

// DefaultHotRefreshInterval is the hot-tier refresher period when
// Config.HotRefreshInterval is zero.
const DefaultHotRefreshInterval = 5 * time.Second

// observeLease receives the recall sequence stamped on a response from
// addr (rpc.CallSpec.OnLease) and books it to the partition the installed
// map places addr in, so the per-source cache watermarks never mix
// incomparable sequences. An address the map does not list — the bootstrap
// address before the first map is in, a replica just dropped — is booked
// nowhere: the sequence belongs to one partition's lease table, and guessing
// the partition would poison another's watermark (the stamp rides on every
// later response too). TTL-only caches ignore it: they trust entries for the
// configured lease regardless of server-side mutations.
func (c *Client) observeLease(addr string, seq uint64) {
	if ca, v := c.cache, c.view.Load(); ca != nil && ca.coherent && v != nil {
		if pid, ok := v.src[addr]; ok {
			ca.observeFrom(pid, seq)
		}
	}
}

// withRecall appends source src's recall catch-up — the OpLeaseRecall fetch
// from its applied watermark — to a send bound for that source when the cache
// has observed recalls from it that it has not applied, and returns the
// sub-request's index for applyRecall (-1 when the cache is level).
func (c *Client) withRecall(subs []wire.SubReq, src uint32) ([]wire.SubReq, int) {
	if c.cache != nil {
		if since, behind := c.cache.behindFrom(src); behind {
			return append(subs, wire.SubReq{Op: wire.OpLeaseRecall, Body: wire.EncodeRecallReq(since)}), len(subs)
		}
	}
	return subs, -1
}

// applyRecall applies the recall fetch withRecall placed at index at, as
// answered by source src.
func (c *Client) applyRecall(src uint32, resps []wire.SubResp, at int) {
	if at < 0 || resps[at].Status != wire.StatusOK {
		return
	}
	if cur, reset, entries, err := wire.DecodeRecallResp(resps[at].Body); err == nil {
		c.cache.applyRecallsFrom(src, cur, reset, entries)
	}
}

// decodePub reads the publication trailer (last recall sequence, entry
// count) a successful DMS mutation response ends with. A body too short to
// hold the trailer reads as zero, which selfApply treats as "drop
// unconditionally" — defense-in-depth only: any server speaking the
// current 61-byte wire header also writes the trailer (the header growth
// was a flag-day protocol break, see DESIGN.md §14), so a short body here
// means a malformed response, not an older server.
func decodePub(d *wire.Dec) (last uint64, n uint32) {
	if d.Remaining() >= 12 {
		last = d.U64()
		n = d.U32()
	}
	return last, n
}

// hotRefreshPoll paces the wall-clock polls of an injected clock: fast
// enough to track a virtual clock running well ahead of real time, cheap
// enough to idle (one channel receive per tick).
const hotRefreshPoll = time.Millisecond

// hotRefreshLoop periodically promotes the client's most-resolved
// directories into the hot tier and refreshes their leases. clk is the
// injected clock (Config.Now), or nil for real time. With an injected
// clock the refresh cadence follows *that* clock — a real ticker only
// paces the polls — so virtual-time tests and benchmarks model the hot
// tier consistently instead of refreshing on wall time.
func (c *Client) hotRefreshLoop(n int, interval time.Duration, clk func() time.Time) {
	defer close(c.hotDone)
	if clk == nil {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.hotStop:
				return
			case <-t.C:
				c.refreshHot(n)
			}
		}
	}
	t := time.NewTicker(hotRefreshPoll)
	defer t.Stop()
	last := clk()
	for {
		select {
		case <-c.hotStop:
			return
		case <-t.C:
			if now := clk(); now.Sub(last) >= interval {
				last = now
				c.refreshHot(n)
			}
		}
	}
}

// refreshHot ranks the top n resolved directories, installs them as the hot
// set (so subsequent puts stretch their leases), and re-resolves them — one
// send per partition leader, that source's recall catch-up riding along — so
// hot entries are renewed in the background instead of expiring under
// foreground traffic.
func (c *Client) refreshHot(n int) {
	ca := c.cache
	if ca == nil || ca.hot == nil {
		return
	}
	top := ca.hot.Top(n)
	if len(top) == 0 {
		return
	}
	set := make(map[string]struct{}, len(top))
	for _, h := range top {
		set[h.Key] = struct{}{}
	}
	ca.setHot(set)
	oc := c.startOp("HotRefresh")
	var err error
	defer func() { oc.finish(err) }()
	type hotGroup struct {
		e     *endpoint
		src   uint32
		paths []string
	}
	byEp := make(map[*endpoint]*hotGroup)
	var order []*hotGroup
	for _, h := range top {
		e, src, rerr := c.routeDMS(h.Key, false)
		if rerr != nil {
			continue
		}
		g, ok := byEp[e]
		if !ok {
			g = &hotGroup{e: e, src: src}
			byEp[e] = g
			order = append(order, g)
		}
		g.paths = append(g.paths, h.Key)
	}
	for _, g := range order {
		subs := make([]wire.SubReq, len(g.paths), len(g.paths)+1)
		for i, p := range g.paths {
			subs[i] = wire.SubReq{Op: wire.OpLookupDir, Body: wire.NewEnc().Str(p).U32(c.uid).U32(c.gid).Bytes()}
		}
		subs, recallAt := c.withRecall(subs, g.src)
		var resps []wire.SubResp
		if resps, _, err = c.send(oc, g.e, subs, 0); err != nil {
			return
		}
		for i, p := range g.paths {
			if resps[i].Status == wire.StatusOK {
				c.cacheLookupChainFrom(g.src, p, resps[i].Body)
			}
		}
		c.applyRecall(g.src, resps, recallAt)
	}
}
