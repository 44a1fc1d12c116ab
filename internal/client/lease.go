package client

import "locofs/internal/wire"

// Lease coherence, client side (DESIGN.md §14). Every DMS response header
// carries the server's recall sequence (wire.Msg.Lease); observeLease feeds
// it into the cache's maxSeq watermark. When the watermark runs ahead of
// what the cache has applied, cached entries stop being served (they might
// be stale) and the next DMS round trip piggybacks an OpLeaseRecall fetch
// (withRecall) — so catching up costs zero extra trips. Mutation responses
// additionally carry a publication trailer (decodePub) letting the mutating
// client account for its own recalls without any fetch.

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
