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
// client's fault-tolerance policy applied per call: a bounded number of
// retry attempts with jittered exponential backoff on attempt-level
// failures (transport errors, per-attempt deadline expiry, explicit
// EUNAVAIL), a per-attempt deadline from the resilience configuration, and
// a circuit breaker that fails calls fast while the server is known-dead.
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

// Call issues one request stamped with oc's trace ID under the client's
// fault-tolerance policy (per-attempt deadline, bounded retries through
// fresh connections, circuit breaker — see callAttempts), and returns the
// call's modeled (virtual) time alongside the response. The wall-clock
// round trip is recorded in the client's per-op telemetry, the in-flight
// gauge covers the call while it is on the wire, and calls slower than the
// configured threshold are logged with the trace ID and server address so
// they can be matched against server-side slow-request logs. When the
// operation carries a span, the RPC gets its own child span (annotated with
// the server address, each retry and any breaker fast-fail) whose ID rides
// the wire header as the parent of the server-side span.
//
// A non-zero req pins the dedup request id across the caller's own
// higher-level retries — the partition router uses it so a mutation re-sent
// to a promoted leader after a failover replays from the replicated applied
// table instead of executing twice. req == 0 has the endpoint mint one per
// call for non-idempotent ops.
func (e *endpoint) Call(oc opCtx, op wire.Op, body []byte, req uint64) (wire.Status, []byte, time.Duration, error) {
	sp := oc.sp.StartChild("rpc:" + op.String())
	if sp != nil {
		sp.Annotate("addr=" + e.addr)
	}
	t0 := time.Now()
	e.telem.inflight.Add(1)
	st, resp, virt, err := e.callAttempts(oc, sp, op, body, req)
	e.telem.inflight.Add(-1)
	rtt := time.Since(t0)
	m := e.telem.forOp(op)
	m.calls.Inc()
	m.rtt.Record(rtt)
	if e.telem.IsSlow(rtt) {
		log.Printf("client: slow call trace=%#x op=%s addr=%s rtt=%v status=%s err=%v",
			oc.tid, op, e.addr, rtt, st, err)
	}
	if sp != nil {
		if err != nil {
			sp.SetStatus(wire.StatusOf(err).String())
		} else if st != wire.StatusOK {
			sp.SetStatus(st.String())
		}
		sp.Finish()
	}
	return st, resp, virt, err
}

// send puts subs on the wire to e and returns one outcome per sub-request,
// in order. It is the client's only multi-request path, and the only code
// that decides what travels: one sub-request goes as a plain Call (req, when
// non-zero, pins its dedup id as Call describes); several go packed into one
// wire.OpBatch message — a single framed request, one round of link delays
// plus the server's summed sub-request service time, the batch RPC's client
// span parenting the server-side envelope span and its per-sub-request
// children. With Config.DisableBatchRPC the several go as plain calls
// instead, one after another on the same endpoint with their virtual times
// summed: the batched form minus the envelope. Like the envelope, the
// sequence runs past a non-OK status (statuses are per sub-request) and
// stops at the first transport error.
func (c *Client) send(oc opCtx, e *endpoint, subs []wire.SubReq, req uint64) ([]wire.SubResp, time.Duration, error) {
	if len(subs) == 1 || c.disableBatch {
		if len(subs) > 1 {
			// One id names one request: shared, the server would answer the
			// later sub-requests from the first one's dedup record.
			req = 0
		}
		resps := make([]wire.SubResp, len(subs))
		var vtotal time.Duration
		for i, s := range subs {
			st, body, virt, err := e.Call(oc, s.Op, s.Body, req)
			vtotal += virt
			if err != nil {
				return nil, vtotal, err
			}
			resps[i] = wire.SubResp{Status: st, Body: body}
		}
		return resps, vtotal, nil
	}
	body, err := wire.EncodeBatch(subs)
	if err != nil {
		return nil, 0, err
	}
	st, resp, virt, err := e.Call(oc, wire.OpBatch, body, 0)
	if err != nil {
		return nil, virt, err
	}
	if st != wire.StatusOK {
		// Envelope-level failure (malformed batch); sub-request failures
		// arrive as per-sub statuses instead.
		return nil, virt, st.Err()
	}
	resps, err := wire.DecodeBatchResp(resp)
	if err != nil {
		return nil, virt, err
	}
	if len(resps) != len(subs) {
		return nil, virt, wire.StatusIO.Err()
	}
	return resps, virt, nil
}

// callAttempts runs the per-call resilience loop: up to 1+Retry.Max
// attempts, each gated by the endpoint's circuit breaker and bounded by the
// per-attempt deadline. An attempt fails at the attempt level on a
// transport error, a deadline expiry, or an explicit EUNAVAIL status —
// anything else (including application errors like ENOENT) returns
// immediately. Failed attempts retire the connection so the next attempt
// redials; retries back off with jitter and are annotated on the call's
// span and counted in telemetry. Non-idempotent operations carry one dedup
// request id across every attempt, so the server executes them at most
// once no matter how deliveries are duplicated (wire.Op.Idempotent is the
// retry matrix; OpBatch envelopes are retried freely because the client
// only batches idempotent sub-ops: lookups, recall fetches, readdir pages,
// block deletes, and migration's absolute-state installs and deletes).
func (e *endpoint) callAttempts(oc opCtx, sp *trace.Span, op wire.Op, body []byte, req uint64) (wire.Status, []byte, time.Duration, error) {
	if req == 0 && !op.Idempotent() && op != wire.OpBatch {
		req = e.res.nextReq()
	}
	m := e.telem.forOp(op)
	var st wire.Status
	var resp []byte
	var virt time.Duration
	var err error
	for attempt := 0; attempt <= e.res.retry.Max; attempt++ {
		if attempt > 0 {
			d := e.res.retry.backoff(attempt)
			m.retries.Inc()
			e.telem.Emit(obs.KindRetry, op.String(), oc.tid, int64(attempt), e.addr)
			if sp != nil {
				sp.Annotate(fmt.Sprintf("retry=%d backoff=%v", attempt, d))
			}
			if d > 0 {
				// Backoff waits honor the operation's context: a cancelled
				// caller stops retrying immediately instead of sleeping out
				// the full schedule first.
				if oc.ctx != nil {
					t := time.NewTimer(d)
					select {
					case <-oc.ctx.Done():
						t.Stop()
						return st, resp, virt, ctxAttemptErr(oc.ctx.Err())
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
			if sp != nil {
				sp.Annotate("breaker=fastfail")
			}
			e.telem.fastFails().Inc()
			return wire.StatusUnavailable, nil, virt, berr
		}
		st, resp, virt, err = e.callOnce(oc, sp, op, body, req)
		failed := err != nil || st == wire.StatusUnavailable
		e.brk.report(!failed)
		if !failed {
			return st, resp, virt, nil
		}
		if wire.StatusOf(err) == wire.StatusDeadline {
			m.deadlines.Inc()
		}
		// A cancelled or expired operation context ends the whole call —
		// retrying on the caller's behalf after it gave up would only burn
		// backoff time (its per-attempt deadline may still retry above).
		if oc.ctx != nil && oc.ctx.Err() != nil {
			return st, resp, virt, err
		}
	}
	return st, resp, virt, err
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

// callOnce performs a single attempt on the current connection generation,
// retiring it on any transport- or deadline-level failure so the next
// attempt (or call) starts from a fresh dial.
func (e *endpoint) callOnce(oc opCtx, sp *trace.Span, op wire.Op, body []byte, req uint64) (wire.Status, []byte, time.Duration, error) {
	cl, err := e.current()
	if err != nil {
		return wire.StatusIO, nil, 0, err
	}
	st, resp, virt, err := cl.Do(rpc.CallSpec{
		Op: op, Body: body, Ctx: oc.ctx,
		Trace: oc.tid, Span: sp.ID(), Req: req,
		Timeout: e.res.timeout,
		OnMap:   e.onMap,
		OnLease: e.onLease,
	})
	if err != nil {
		// The connection is unusable (died) or suspect (a response may
		// arrive arbitrarily late after a deadline miss); replace it.
		e.retire(cl)
	}
	return st, resp, virt, err
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

// VirtualTime returns cumulative modeled time across all generations.
func (e *endpoint) VirtualTime() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.baseVirt
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
