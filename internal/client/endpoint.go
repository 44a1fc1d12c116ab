package client

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
	"locofs/internal/wire"
)

// clientTelem is the observability shared by every endpoint of one client:
// its handle (Reg is never nil: per-op round-trip histograms and call
// counters land there) and the per-op instrument cache that keeps the hot
// path off the registry lock.
type clientTelem struct {
	*obs.Handle
	byOp sync.Map // wire.Op -> *clientOpMetrics

	// inflight counts RPCs currently on the wire across every endpoint of
	// the client, exported as the locofs_client_inflight_rpcs gauge. Fan-out
	// operations push it to the width of their parallel burst.
	inflight atomic.Int64

	ffOnce sync.Once
	ff     *telemetry.Counter
}

// fastFails returns the breaker fast-fail counter, created on first use.
func (t *clientTelem) fastFails() *telemetry.Counter {
	t.ffOnce.Do(func() { t.ff = t.Reg.Counter(MetricFastFails) })
	return t.ff
}

// MetricInflight is the gauge reporting a client's RPCs currently on the
// wire (sampled at scrape time).
const MetricInflight = "locofs_client_inflight_rpcs"

// clientOpMetrics caches one op's instrument handles. RTT records through a
// rotating-window histogram so the client exposes time-local p50/p95/p99
// and rate alongside the lifetime distribution.
type clientOpMetrics struct {
	rtt       *telemetry.Windowed
	calls     *telemetry.Counter
	retries   *telemetry.Counter
	deadlines *telemetry.Counter
}

func (t *clientTelem) forOp(op wire.Op) *clientOpMetrics {
	if m, ok := t.byOp.Load(op); ok {
		return m.(*clientOpMetrics)
	}
	label := telemetry.L("op", op.String())
	m := &clientOpMetrics{
		rtt:       t.Reg.Windowed(rpc.MetricRTT, label),
		calls:     t.Reg.Counter(rpc.MetricCalls, label),
		retries:   t.Reg.Counter(MetricRetries, label),
		deadlines: t.Reg.Counter(MetricDeadlines, label),
	}
	actual, _ := t.byOp.LoadOrStore(op, m)
	return actual.(*clientOpMetrics)
}

// endpoint is one server connection with transparent re-dial and the
// client's fault-tolerance policy applied per send: a bounded number of
// retry attempts with jittered exponential backoff on attempt-level
// failures (transport errors, per-attempt deadline expiry, explicit
// EUNAVAIL), a per-attempt deadline from the resilience configuration, and
// a circuit breaker that fails sends fast while the server is known-dead.
// Application-level statuses are never retried. Non-idempotent requests
// carry a dedup id so a retried mutation executes at most once server-side
// (see wire.Msg.Req).
//
// Trip and virtual-time counters aggregate across connection generations,
// so measurement hooks see one continuous stream.
type endpoint struct {
	dialer netsim.Dialer
	addr   string
	link   netsim.LinkConfig
	telem  *clientTelem // never nil
	res    *resilience  // never nil
	brk    *breaker     // never nil (may be disabled)

	// onMap, when set, receives the cluster-map version stamped on every
	// response (see wire.Msg.Map) — the client's passive channel for
	// noticing an FMS set change or a DMS failover without any push
	// protocol.
	onMap func(ver uint64)

	// onLease, when set, receives the recall sequence stamped on every
	// response (see wire.Msg.Lease) — the same passive channel, for
	// noticing directory mutations that may invalidate cached leases.
	onLease func(seq uint64)

	// savedNS is the virtual time pipelined groups saved over sending their
	// requests one round trip each: (k-1) link RTTs per answered group of k,
	// which VirtualTime subtracts.
	savedNS atomic.Int64

	mu        sync.Mutex
	cl        *rpc.Client
	baseTrips uint64
	baseVirt  time.Duration
	closed    bool
}

// dialEndpoint connects the first generation.
func dialEndpoint(d netsim.Dialer, addr string, link netsim.LinkConfig, telem *clientTelem, res *resilience, onMap, onLease func(uint64)) (*endpoint, error) {
	e := &endpoint{dialer: d, addr: addr, link: link, telem: telem, res: res, onMap: onMap, onLease: onLease}
	e.brk = newBreaker(res.breaker, res.now, func(state string) {
		telem.Reg.Counter(MetricBreaker,
			telemetry.L("addr", addr), telemetry.L("state", state)).Inc()
		telem.Emit(obs.KindBreaker, "", 0, 0, addr+" "+state)
	})
	cl, err := rpc.Dial(d, addr)
	if err != nil {
		return nil, err
	}
	cl.SetLink(link)
	e.cl = cl
	return e, nil
}

// current returns the live connection, redialing if the previous one died.
func (e *endpoint) current() (*rpc.Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, rpc.ErrClientClosed
	}
	if e.cl != nil {
		return e.cl, nil
	}
	cl, err := rpc.Dial(e.dialer, e.addr)
	if err != nil {
		return nil, err
	}
	cl.SetLink(e.link)
	e.cl = cl
	return cl, nil
}

// retire discards cl if it is still the active generation, folding its
// counters into the endpoint's running totals.
func (e *endpoint) retire(cl *rpc.Client) {
	e.mu.Lock()
	if e.cl == cl {
		e.baseTrips += cl.Trips()
		e.baseVirt += cl.VirtualTime()
		e.cl = nil
		cl.Close()
	}
	e.mu.Unlock()
}

// Call sends one request to e: a send of one, returning its status and body
// with the call's modeled (virtual) time.
func (e *endpoint) Call(oc opCtx, op wire.Op, body []byte) (wire.Status, []byte, time.Duration, error) {
	subs := [1]wire.SubReq{{Op: op, Body: body}}
	var resps [1]wire.SubResp
	virt, err := e.send(oc, subs[:], resps[:])
	return resps[0].Status, resps[0].Body, virt, err
}

// send puts subs on the wire to e as one group, filling resps (one outcome
// per sub-request, in order), and returns the group's modeled (virtual)
// time. It is the client's only multi-request path: the requests are
// pipelined on the endpoint's connection and flushed in one write, which the
// server runs in arrival order and answers with one write — one round trip,
// priced as one round of link delays plus the summed service times.
// Statuses are per sub-request; a transport error fails the whole group,
// which retries as a whole under the client's fault-tolerance policy (see
// attempts).
//
// Before the first attempt, a non-idempotent sub-request without a dedup id
// gets one in subs itself, kept on every retry — and by a caller that
// re-sends the same subs (the partition router after a failover), so a
// mutation executes at most once wherever its retries land. The wall-clock
// round trip is recorded in the client's per-op telemetry for every
// sub-request, the in-flight gauge covers the group while it is on the wire,
// and groups slower than the configured threshold are logged per
// sub-request with the trace id and server address, to be matched against
// server-side slow-request logs. When the operation carries a span, each
// sub-request gets its own rpc: child span (annotated with the server
// address, each retry and any breaker fast-fail) whose id rides the wire
// header as the parent of its server-side span.
func (e *endpoint) send(oc opCtx, subs []wire.SubReq, resps []wire.SubResp) (time.Duration, error) {
	var one [1]*trace.Span
	sps := one[:]
	if len(subs) > 1 {
		sps = make([]*trace.Span, len(subs))
	}
	for i := range subs {
		if oc.sp != nil { // an untraced op builds no span name
			sps[i] = oc.sp.StartChild("rpc:" + subs[i].Op.String())
			sps[i].Annotate("addr=" + e.addr)
		}
		if subs[i].Req == 0 && !subs[i].Op.Idempotent() {
			subs[i].Req = e.res.nextReq()
		}
	}
	t0 := time.Now()
	e.telem.inflight.Add(int64(len(subs)))
	virt, err := e.attempts(oc, subs, resps, sps)
	e.telem.inflight.Add(-int64(len(subs)))
	rtt := time.Since(t0)
	for i, sub := range subs {
		st := resps[i].Status
		m := e.telem.forOp(sub.Op)
		m.calls.Inc()
		m.rtt.Record(rtt)
		if e.telem.IsSlow(rtt) {
			log.Printf("client: slow call trace=%#x op=%s addr=%s rtt=%v status=%s err=%v",
				oc.tid, sub.Op, e.addr, rtt, st, err)
		}
		if err != nil {
			st = wire.StatusOf(err)
		}
		if st != wire.StatusOK {
			sps[i].SetStatus(st.String())
		}
		sps[i].Finish()
	}
	return virt, err
}

// attempts runs the resilience loop over one group: up to 1+Retry.Max
// attempts, each gated by the endpoint's circuit breaker and bounded by the
// per-attempt deadline. An attempt fails at the attempt level on a
// transport error, a deadline expiry, or an explicit EUNAVAIL status on any
// of its requests — anything else (including application errors like
// ENOENT) returns immediately — and a failed attempt retries the whole
// group. Failed attempts retire the connection so the next attempt
// redials; retries back off with jitter and are annotated on the requests'
// spans and counted in telemetry. Every attempt carries the same dedup ids
// (see send), so the server executes a non-idempotent request at most once
// no matter how deliveries are duplicated (wire.Op.Idempotent is the retry
// matrix).
func (e *endpoint) attempts(oc opCtx, subs []wire.SubReq, resps []wire.SubResp, sps []*trace.Span) (virt time.Duration, err error) {
	for attempt := 0; attempt <= e.res.retry.Max; attempt++ {
		if attempt > 0 {
			d := e.res.retry.backoff(attempt)
			for i, sub := range subs {
				e.telem.forOp(sub.Op).retries.Inc()
				sps[i].Annotate(fmt.Sprintf("retry=%d backoff=%v", attempt, d))
			}
			e.telem.Emit(obs.KindRetry, subs[0].Op.String(), oc.tid, int64(attempt), e.addr)
			if d > 0 {
				// Backoff waits honor the operation's context: a cancelled
				// caller stops retrying immediately instead of sleeping out
				// the full schedule first.
				if oc.ctx != nil {
					t := time.NewTimer(d)
					select {
					case <-oc.ctx.Done():
						t.Stop()
						return virt, ctxAttemptErr(oc.ctx.Err())
					case <-t.C:
					}
				} else {
					time.Sleep(d)
				}
			}
		}
		if berr := e.brk.allow(); berr != nil {
			// Open circuit: fail fast instead of burning a timeout on a
			// server already known to be down.
			for i := range resps {
				resps[i] = wire.SubResp{Status: wire.StatusUnavailable}
				sps[i].Annotate("breaker=fastfail")
			}
			e.telem.fastFails().Inc()
			return virt, berr
		}
		virt, err = e.once(oc, subs, resps, sps)
		failed := err != nil
		for _, r := range resps {
			failed = failed || r.Status == wire.StatusUnavailable
		}
		e.brk.report(!failed)
		if !failed {
			return virt, nil
		}
		// A cancelled or expired operation context ends the whole send —
		// retrying on the caller's behalf after it gave up would only burn
		// backoff time (its per-attempt deadline may still retry above).
		if oc.ctx != nil && oc.ctx.Err() != nil {
			return virt, err
		}
	}
	return virt, err
}

// ctxAttemptErr maps an operation context's termination to the call error:
// an expired deadline becomes the same wire.StatusDeadline error a
// per-attempt timeout produces (it also matches context.DeadlineExceeded
// under errors.Is), a bare cancellation surfaces as the context's error.
func ctxAttemptErr(err error) error {
	if err == context.DeadlineExceeded {
		return wire.StatusDeadline.Err()
	}
	return err
}

// once performs one attempt on the current connection generation: a lone
// request goes as one call; several are started in order, flushed in one
// write, then waited on. Any transport- or deadline-level failure retires the
// connection, so the next attempt (or send) starts from a fresh dial.
func (e *endpoint) once(oc opCtx, subs []wire.SubReq, resps []wire.SubResp, sps []*trace.Span) (virt time.Duration, err error) {
	cl, err := e.current()
	if err != nil {
		for i := range resps {
			resps[i] = wire.SubResp{Status: wire.StatusIO}
		}
		return 0, err
	}
	var calls []rpc.Call
	if len(subs) > 1 {
		calls = make([]rpc.Call, len(subs))
		for i := range subs {
			calls[i] = cl.Start(e.spec(oc, subs[i], sps[i]))
		}
		_ = cl.Flush() // a failed write fails the calls, which Wait reports
	}
	answered := 0
	for i := range subs {
		var v time.Duration
		var werr error
		if calls == nil {
			resps[i].Status, resps[i].Body, v, werr = cl.Do(e.spec(oc, subs[i], sps[i]))
		} else {
			resps[i].Status, resps[i].Body, v, werr = calls[i].Wait()
		}
		virt += v
		if werr == nil {
			answered++
			continue
		}
		if wire.StatusOf(werr) == wire.StatusDeadline {
			e.telem.forOp(subs[i].Op).deadlines.Inc()
		}
		if err == nil {
			err = werr
		}
	}
	if answered > 1 {
		// The group shared one round of link delays: price it once.
		saved := time.Duration(answered-1) * e.link.RTT
		e.savedNS.Add(int64(saved))
		virt -= saved
	}
	if err != nil {
		// The connection is unusable (died) or suspect (a response may
		// arrive arbitrarily late after a deadline miss); replace it.
		e.retire(cl)
	}
	return virt, err
}

// spec is one request of an attempt as the connection sends it.
func (e *endpoint) spec(oc opCtx, sub wire.SubReq, sp *trace.Span) rpc.CallSpec {
	return rpc.CallSpec{
		Op: sub.Op, Body: sub.Body, Ctx: oc.ctx,
		Trace: oc.tid, Span: sp.ID(), Req: sub.Req,
		Timeout: e.res.timeout,
		OnMap:   e.onMap,
		OnLease: e.onLease,
	}
}

// Trips returns cumulative round trips across all generations.
func (e *endpoint) Trips() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.baseTrips
	if e.cl != nil {
		n += e.cl.Trips()
	}
	return n
}

// VirtualTime returns cumulative modeled time across all generations, less
// what pipelined groups saved.
func (e *endpoint) VirtualTime() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.baseVirt - time.Duration(e.savedNS.Load())
	if e.cl != nil {
		d += e.cl.VirtualTime()
	}
	return d
}

// Close tears the endpoint down permanently.
func (e *endpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	if e.cl != nil {
		e.cl.Close()
		e.cl = nil
	}
	return nil
}
