package client

import (
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/wire"
)

// fanOutLimit bounds the branches one logical operation keeps in flight at
// once. Excess branches queue and start as slots free up, so a client
// talking to very many servers cannot flood its own links.
const fanOutLimit = 16

// batchPageDepth caps how many listing pages a paged readdir requests per
// wire.OpBatch message, bounding each batched response's size. When the
// server reports an exact remaining-entry count the batch is sized to it
// (up to this cap); without one a single follow-up page is fetched per
// round trip, since every page request re-reads the server's dirent log —
// a speculative empty page would cost a full list scan, not just wire
// bytes.
const batchPageDepth = 4

// fanOut runs fn(0..n-1) — each branch typically one or more RPCs to a
// distinct server — and returns the first branch error (nil if none).
//
// In the default parallel mode branches run concurrently, at most
// fanOutLimit in flight; the first failing branch cancels every branch not
// yet started (in-flight branches are drained), which is both the
// first-error bail-out and rmdir's early exit on the first non-empty
// probe. Each branch reports its modeled (virtual) time, and the group is
// accounted at the cost of its slowest branch: the per-call accumulation
// inside the endpoints sums serially, so the difference (sum - max) is
// recorded as parallel savings and subtracted by Client.Cost.
//
// When oc carries a span, every branch runs under its own child span named
// label (with the branch index as its Sub), so traces show the fan-out
// width and per-branch timing. fn receives the branch's opCtx and must pass
// it to the RPCs it issues.
//
// With Config.SerialFanOut the branches run one at a time in order,
// stopping at the first error — the pre-parallel client, kept as the
// benchmark baseline.
func (c *Client) fanOut(oc opCtx, label string, n int, fn func(boc opCtx, i int) (time.Duration, error)) error {
	if n == 0 {
		return nil
	}
	if c.serialFanOut || n == 1 {
		for i := 0; i < n; i++ {
			boc := oc.branch(label, i)
			_, err := fn(boc, i)
			boc.finish(err)
			if err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64 // next branch index to claim
		cancel   atomic.Bool  // set on first error: unstarted branches skip
		errOnce  sync.Once
		firstErr error
		virtMu   sync.Mutex
		virtSum  time.Duration
		virtMax  time.Duration
		wg       sync.WaitGroup
	)
	workers := n
	if workers > fanOutLimit {
		workers = fanOutLimit
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cancel.Load() {
					return
				}
				boc := oc.branch(label, i)
				virt, err := fn(boc, i)
				boc.finish(err)
				virtMu.Lock()
				virtSum += virt
				if virt > virtMax {
					virtMax = virt
				}
				virtMu.Unlock()
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if saved := virtSum - virtMax; saved > 0 {
		c.parSavedNS.Add(int64(saved))
	}
	return firstErr
}

// readPages drains one server's paged directory listing. The first page is
// a single request; when the server reports remaining entries, the
// follow-up pages are fetched as one wire.OpBatch message per
// batchPageDepth pages (sub-request i carries the same cursor and skip=i,
// addressing page i after the cursor), sized from the server's exact
// remaining-entry count, so a large listing costs one round trip per
// batchPageDepth pages instead of one per page. mkBody builds the request
// body for a (cursor, skip) page. Returns the entries and the branch's
// summed virtual time.
func (c *Client) readPages(e *endpoint, oc opCtx, op wire.Op, mkBody func(cursor string, skip uint32) []byte, isDir bool) ([]DirEntry, time.Duration, error) {
	st, resp, virt, err := e.Call(oc, op, mkBody("", 0), 0)
	if err != nil {
		return nil, virt, err
	}
	if st != wire.StatusOK {
		return nil, virt, st.Err()
	}
	ents, more, remaining, _, err := decodeEntryPage(resp, isDir)
	if err != nil {
		return nil, virt, err
	}
	out, vrest, err := c.readMorePages(e, oc, op, mkBody, isDir, ents, more, remaining)
	return out, virt + vrest, err
}

// readSubdirPages drains the DMS subdirectory listing for a directory
// whose inode was cached but whose listing was not. e is the endpoint
// owning the listing (the routed partition leader) and src its partition. It is readPages with one
// addition: when the first page is the complete listing and carries a
// listing lease, it is installed in the directory cache, so the next
// readdir's DMS branch costs zero trips (the cold-miss path does the same
// inside resolveForReaddir).
func (c *Client) readSubdirPages(e *endpoint, src uint32, cleaned string, oc opCtx, mkBody func(cursor string, skip uint32) []byte) ([]DirEntry, time.Duration, error) {
	st, resp, virt, err := e.Call(oc, wire.OpReaddirSubdirs, mkBody("", 0), 0)
	if err != nil {
		return nil, virt, err
	}
	if st != wire.StatusOK {
		return nil, virt, st.Err()
	}
	ents, more, remaining, g, err := decodeEntryPage(resp, true)
	if err != nil {
		return nil, virt, err
	}
	if c.cache != nil && g.Valid() && !more {
		c.cache.putListFrom(src, cleaned, ents, g)
	}
	out, vrest, err := c.readMorePages(e, oc, wire.OpReaddirSubdirs, mkBody, true, ents, more, remaining)
	return out, virt + vrest, err
}

// readMorePages continues a paged listing whose first page (first, more,
// remaining) was already fetched — by readPages, or prefetched inside a
// batched DMS lookup (see resolveForReaddir).
func (c *Client) readMorePages(e *endpoint, oc opCtx, op wire.Op, mkBody func(cursor string, skip uint32) []byte, isDir bool, first []DirEntry, more bool, remaining int) ([]DirEntry, time.Duration, error) {
	out := first
	var vtotal time.Duration
	for more && len(out) > 0 {
		cursor := out[len(out)-1].Name
		// Size the batch from the server's exact remaining count; with
		// none reported, fall back to one page per round trip (an empty
		// speculative page would still cost a full dirent-log scan
		// server-side).
		pages := 1
		if !c.disableBatch && remaining > 0 {
			pages = (remaining + ReaddirPageSize - 1) / ReaddirPageSize
			if pages > batchPageDepth {
				pages = batchPageDepth
			}
		}
		if pages == 1 {
			st, resp, virt, err := e.Call(oc, op, mkBody(cursor, 0), 0)
			vtotal += virt
			if err != nil {
				return nil, vtotal, err
			}
			if st != wire.StatusOK {
				return nil, vtotal, st.Err()
			}
			ents, m, rem, _, err := decodeEntryPage(resp, isDir)
			if err != nil {
				return nil, vtotal, err
			}
			out = append(out, ents...)
			more = m && len(ents) > 0
			remaining = rem
			continue
		}
		subs := make([]wire.SubReq, pages)
		for i := range subs {
			subs[i] = wire.SubReq{Op: op, Body: mkBody(cursor, uint32(i))}
		}
		resps, virt, err := e.CallBatch(oc, subs)
		vtotal += virt
		if err != nil {
			return nil, vtotal, err
		}
		more = false
		for _, r := range resps {
			if r.Status != wire.StatusOK {
				return nil, vtotal, r.Status.Err()
			}
			ents, m, rem, _, err := decodeEntryPage(r.Body, isDir)
			if err != nil {
				return nil, vtotal, err
			}
			out = append(out, ents...)
			if len(ents) == 0 {
				more = false
				break
			}
			more = m
			remaining = rem
		}
	}
	return out, vtotal, nil
}
