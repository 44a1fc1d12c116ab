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

// pageDepth caps how many listing pages a paged readdir requests per send,
// bounding each round trip's response bytes. When the server reports an
// exact remaining-entry count the send is sized to it (up to this cap);
// without one a single follow-up page is fetched per round trip, since
// every page request re-reads the server's dirent log — a speculative empty
// page would cost a full list scan, not just wire bytes.
const pageDepth = 4

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

// readPages drains one server's paged directory listing, continuing from
// page when its first page is already held (prefetched with the DMS lookup,
// see resolveDir). Each round trip is one send: the first page alone, then —
// when the server reports remaining entries — up to pageDepth follow-up
// pages at once (sub-request i carries the same cursor and skip=i,
// addressing page i after the cursor), sized from the server's exact
// remaining-entry count, so a large listing costs one round trip per
// pageDepth pages instead of one per page. mkBody builds the request
// body for a (cursor, skip) page; onFirst, when set, sees the first page if
// it was fetched here. Returns the entries and the branch's summed virtual
// time.
func (c *Client) readPages(e *endpoint, oc opCtx, op wire.Op, mkBody func(cursor string, skip uint32) []byte, isDir bool, page listPage, onFirst func(listPage)) ([]DirEntry, time.Duration, error) {
	out := page.ents
	var vtotal time.Duration
	for first := !page.ok; first || (page.more && len(out) > 0); first = false {
		cursor := ""
		if len(out) > 0 {
			cursor = out[len(out)-1].Name
		}
		// Size the send from the server's exact remaining count; with none
		// reported ask for one page: skip=i re-reads the server's dirent
		// log, so a speculative empty page costs a full list scan.
		pages := 1
		if page.remaining > 0 {
			pages = min((page.remaining+ReaddirPageSize-1)/ReaddirPageSize, pageDepth)
		}
		subs, resps := make([]wire.SubReq, pages), make([]wire.SubResp, pages)
		for i := range subs {
			subs[i] = wire.SubReq{Op: op, Body: mkBody(cursor, uint32(i))}
		}
		virt, err := e.send(oc, subs, resps)
		vtotal += virt
		if err != nil {
			return nil, vtotal, err
		}
		for _, r := range resps {
			if r.Status != wire.StatusOK {
				return nil, vtotal, r.Status.Err()
			}
			if page, err = decodeEntryPage(r.Body, isDir); err != nil {
				return nil, vtotal, err
			}
			if len(page.ents) == 0 {
				page.more = false
				break
			}
			if out == nil {
				out = page.ents
			} else {
				out = append(out, page.ents...)
			}
		}
		if first && onFirst != nil {
			onFirst(page)
		}
	}
	return out, vtotal, nil
}
