// Package rpc is the small request/response layer LocoFS servers and
// clients speak over a netsim transport: numbered requests multiplexed over
// a connection, dispatched to per-op handlers on the server side.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/chash"
	"locofs/internal/flight"
	"locofs/internal/netsim"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
	"locofs/internal/wire"
)

// Metric names recorded by instrumented servers and clients. Histograms
// observe seconds (Prometheus convention) bucketed logarithmically; every
// series carries an op label with the wire.Op name.
const (
	MetricRequests = "locofs_rpc_requests_total"   // server: completed requests
	MetricErrors   = "locofs_rpc_errors_total"     // server: non-OK responses
	MetricService  = "locofs_rpc_service_seconds"  // server: handler service time (measured + modeled)
	MetricQueue    = "locofs_rpc_queue_seconds"    // server: receipt -> handler start (worker queue wait)
	MetricRTT      = "locofs_client_rtt_seconds"   // client: wall-clock round trip
	MetricCalls    = "locofs_client_calls_total"   // client: calls issued
	MetricDedup    = "locofs_rpc_dedup_hits_total" // server: duplicate requests answered from the dedup window
	// MetricDedupInflightSkips counts dedup-window evictions skipped because
	// the entry's first delivery was still executing — evicting it would
	// have let a retry re-execute the mutation.
	MetricDedupInflightSkips = "locofs_rpc_dedup_inflight_skips_total"
)

// opMetrics caches one op's instrument handles so the hot path does not
// take the registry lock per request. Service and queue time record through
// rotating-window histograms, so the same observation stream yields both
// lifetime aggregates (/metrics histogram families, unchanged) and
// time-local quantiles/rates (the _window gauge families and the SLO layer).
type opMetrics struct {
	reqs    *telemetry.Counter
	errs    *telemetry.Counter
	dedup   *telemetry.Counter
	service *telemetry.Windowed
	queue   *telemetry.Windowed
}

// serverTelem is a server's telemetry sink plus its per-op handle cache.
type serverTelem struct {
	reg  *telemetry.Registry
	byOp sync.Map // wire.Op -> *opMetrics
}

func (t *serverTelem) forOp(op wire.Op) *opMetrics {
	if m, ok := t.byOp.Load(op); ok {
		return m.(*opMetrics)
	}
	label := telemetry.L("op", op.String())
	m := &opMetrics{
		reqs:    t.reg.Counter(MetricRequests, label),
		errs:    t.reg.Counter(MetricErrors, label),
		dedup:   t.reg.Counter(MetricDedup, label),
		service: t.reg.Windowed(MetricService, label),
		queue:   t.reg.Windowed(MetricQueue, label),
	}
	actual, _ := t.byOp.LoadOrStore(op, m)
	return actual.(*opMetrics)
}

// HandlerFunc serves one request body and returns a status and response
// body. Handlers run concurrently; they must be safe for concurrent use.
type HandlerFunc func(body []byte) (wire.Status, []byte)

// MsgHandlerFunc is a HandlerFunc that also receives the request's dedup id
// (wire.Msg.Req; 0 when the client sent none). The sharded DMS registers
// these for mutations: the id keys the replicated op log and doubles as the
// cross-partition transaction id, so it must survive past this server's own
// dedup window (which a leader failover discards).
type MsgHandlerFunc func(req uint64, body []byte) (wire.Status, []byte)

// Server dispatches requests to registered handlers.
type Server struct {
	mu          sync.RWMutex
	handlers    map[wire.Op]HandlerFunc
	msgHandlers map[wire.Op]MsgHandlerFunc
	virtual     map[wire.Op]time.Duration

	wg        sync.WaitGroup
	closed    atomic.Bool
	listener  netsim.Listener
	workers   chan struct{} // nil = unlimited concurrency
	workerCap int
	serviceFn ServiceFunc

	connMu sync.Mutex
	conns  map[netsim.Conn]struct{}

	telem     atomic.Pointer[serverTelem]
	tracer    atomic.Pointer[serverTracer]
	flightRef atomic.Pointer[serverFlight]
	slowNS    atomic.Int64 // slow-request log threshold (0 = disabled)
	dedup     dedupWindow  // at-most-once replay cache for retried mutations

	// cmap holds the installed cluster map with this server's coordinates in
	// it (nil until one is installed); its version is stamped on every
	// response header. mapMu serializes installs (a cold path).
	mapMu sync.Mutex
	cmap  atomic.Pointer[mapState]

	// leaseFn, when set (DMS only), supplies the current lease-recall
	// sequence stamped on every response header's Lease field, the same
	// piggyback channel the map version uses for routing staleness.
	leaseFn atomic.Pointer[func() uint64]

	// Served counts completed requests, for load accounting in experiments.
	Served atomic.Uint64
	// busyNS accumulates total service time (measured + modeled) across
	// all requests; experiments derive server-bound throughput from it.
	busyNS atomic.Uint64
}

// NewServer returns a Server with a default Ping handler registered and no
// concurrency limit.
func NewServer() *Server {
	return NewServerWithWorkers(0)
}

// NewServerWithWorkers returns a Server that executes at most workers
// handlers concurrently (0 = unlimited). The limit models the CPU capacity
// of a metadata server: with per-request service times, throughput caps at
// workers/serviceTime, which is how the experiments saturate servers.
func NewServerWithWorkers(workers int) *Server {
	s := &Server{
		handlers:    make(map[wire.Op]HandlerFunc),
		msgHandlers: make(map[wire.Op]MsgHandlerFunc),
		virtual:     make(map[wire.Op]time.Duration),
		workerCap:   workers,
		conns:       make(map[netsim.Conn]struct{}),
	}
	if workers > 0 {
		s.workers = make(chan struct{}, workers)
	}
	s.Handle(wire.OpPing, func(body []byte) (wire.Status, []byte) {
		return wire.StatusOK, body
	})
	s.Handle(wire.OpGetMap, func([]byte) (wire.Status, []byte) {
		m, _ := s.Map()
		return wire.StatusOK, wire.EncodeClusterMap(m)
	})
	s.Handle(wire.OpSetMap, func(body []byte) (wire.Status, []byte) {
		m, at, err := wire.DecodeSetMap(body)
		if err != nil {
			return wire.StatusInval, []byte(err.Error())
		}
		if !s.InstallMap(m, at) {
			return wire.StatusStale, nil
		}
		return wire.StatusOK, nil
	})
	return s
}

// mapState couples an installed cluster map with this server's own
// coordinates in it and, on an FMS, the ring built from the map's FMS set,
// cached for OwnsKey.
type mapState struct {
	m    *wire.ClusterMap
	at   wire.Coords
	ring *chash.Ring
}

// InstallMap installs m, with this server's coordinates at in it, if m is
// strictly newer than the installed map or nothing is installed yet,
// reporting whether it was accepted — the one install rule every holder of
// the map follows. Subsequent responses carry m.Ver in their headers, which
// is how clients discover the change. A DMS partition node installs under
// its own lock through its OpSetMap handler (see partition.Node); every
// other role takes the default handler above.
func (s *Server) InstallMap(m *wire.ClusterMap, at wire.Coords) bool {
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	if cur := s.cmap.Load(); cur != nil && m.Ver <= cur.m.Ver {
		return false
	}
	st := &mapState{m: m, at: at}
	if at.Ring >= 0 && len(m.FMS) > 0 {
		st.ring = chash.NewRing(0, wire.RingIDs(m.FMS)...)
	}
	s.cmap.Store(st)
	if f := s.flightRef.Load(); f != nil {
		f.j.Emit(flight.KindEpoch, f.source, "", 0, int64(m.Ver), "map installed")
	}
	return true
}

// Map returns the installed cluster map and this server's coordinates in
// it; before any install, the empty version-0 map (which loses to every
// other) and coordinates naming nothing.
func (s *Server) Map() (*wire.ClusterMap, wire.Coords) {
	if st := s.cmap.Load(); st != nil {
		return st.m, st.at
	}
	return &wire.ClusterMap{}, wire.FMSCoords(-1)
}

// MapVer returns the installed map's version (0 = nothing installed).
func (s *Server) MapVer() uint64 {
	if st := s.cmap.Load(); st != nil {
		return st.m.Ver
	}
	return 0
}

// SetLeaseFunc installs the source of the lease-recall sequence stamped on
// every response (see wire.Msg.Lease). fn must be safe for concurrent use
// and cheap — it runs on every response send. The DMS installs its lease
// table's published sequence here during Attach.
func (s *Server) SetLeaseFunc(fn func() uint64) { s.leaseFn.Store(&fn) }

// leaseSeq returns the current lease-recall sequence, 0 when no source is
// installed (FMS/OSS servers, tests).
func (s *Server) leaseSeq() uint64 {
	if fn := s.leaseFn.Load(); fn != nil {
		return (*fn)()
	}
	return 0
}

// OwnsKey reports whether this server owns key under the installed map's
// FMS ring. known is false when no map is installed, the map names no FMS
// set, or the server is not an FMS — callers must then skip the check
// (static topologies keep working unguarded).
func (s *Server) OwnsKey(key []byte) (owns, known bool) {
	st := s.cmap.Load()
	if st == nil || st.ring == nil {
		return false, false
	}
	return st.ring.Locate(key) == int(st.at.Ring), true
}

// DedupInflightSkips returns how many dedup-window evictions were skipped
// because the entry's request was still executing.
func (s *Server) DedupInflightSkips() uint64 { return s.dedup.InflightSkips() }

// Handle registers fn for op, replacing any previous handler.
func (s *Server) Handle(op wire.Op, fn HandlerFunc) {
	s.mu.Lock()
	s.handlers[op] = fn
	delete(s.msgHandlers, op)
	s.mu.Unlock()
}

// HandleMsg registers a dedup-id-aware handler for op, replacing any
// previous handler (of either kind).
func (s *Server) HandleMsg(op wire.Op, fn MsgHandlerFunc) {
	s.mu.Lock()
	s.msgHandlers[op] = fn
	delete(s.handlers, op)
	s.mu.Unlock()
}

// SetVirtualCost declares a modeled software cost for op, added to the
// measured handler time in every response's ServiceNS. Baseline systems use
// this to model their (calibrated) metadata-path service times without
// wall-clock sleeping.
func (s *Server) SetVirtualCost(op wire.Op, d time.Duration) {
	s.mu.Lock()
	s.virtual[op] = d
	s.mu.Unlock()
}

// ServiceFunc executes run (which invokes the handler) and returns the
// request's modeled service time. Implementations may serialize requests to
// read per-request deltas from shared counters; the per-op virtual cost, if
// any, is added on top of the returned duration.
type ServiceFunc func(op wire.Op, run func()) time.Duration

// SetServiceFunc installs a modeled service-time calculator, replacing the
// default wall-clock measurement (which is meaningless under CPU contention
// on small machines). Experiments use cost models derived from the exact KV
// work each request performs.
func (s *Server) SetServiceFunc(fn ServiceFunc) {
	s.mu.Lock()
	s.serviceFn = fn
	s.mu.Unlock()
}

// SetTelemetry installs a metrics registry: every subsequent request
// records per-op request/error counts, service-time and queue-wait
// histograms into it (see the Metric* names). Safe to call while serving.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.telem.Store(nil)
		return
	}
	reg.GaugeFunc(MetricDedupInflightSkips, func() float64 {
		return float64(s.dedup.InflightSkips())
	})
	s.telem.Store(&serverTelem{reg: reg})
}

// SetSlowThreshold enables slow-request logging: any request whose service
// time meets or exceeds d is logged with its trace ID, op, status, service
// and queue time, so one logical operation can be followed across servers.
// Zero disables logging.
func (s *Server) SetSlowThreshold(d time.Duration) { s.slowNS.Store(int64(d)) }

// serverFlight couples a flight journal with the source name stamped on
// every event this server emits.
type serverFlight struct {
	j      *flight.Journal
	source string
}

// SetFlight installs the flight-recorder journal this server emits into:
// dedup replays, slow requests, and cluster-map installs become typed
// events carrying the request's trace id. name labels the events (e.g.
// "fms-1"). A nil journal disables emission. Safe to call while serving.
func (s *Server) SetFlight(j *flight.Journal, name string) {
	if j == nil {
		s.flightRef.Store(nil)
		return
	}
	s.flightRef.Store(&serverFlight{j: j, source: name})
}

// serverTracer couples a span tracer with the server name stamped on every
// span it opens.
type serverTracer struct {
	t    *trace.Tracer
	name string
}

// SetTracer installs span-level tracing: every subsequent request opens a
// server-side child span under the wire header's parent-span ID — and every
// sub-request of a wire.OpBatch envelope opens its own child span under the
// envelope's span, stamped with its sub-request index — completing into the
// tracer's ring per its sampling policy. name labels the spans (e.g.
// "fms-1"). A nil tracer disables tracing. Safe to call while serving.
func (s *Server) SetTracer(t *trace.Tracer, name string) {
	if t == nil {
		s.tracer.Store(nil)
		return
	}
	s.tracer.Store(&serverTracer{t: t, name: name})
}

// startSpan opens the server-side span for one request (nil when tracing is
// off; all span methods are nil-safe). sub is the batch sub-request index,
// -1 outside a batch.
func (s *Server) startSpan(traceID, parent uint64, op wire.Op, sub int) *trace.Span {
	st := s.tracer.Load()
	if st == nil {
		return nil
	}
	sp := st.t.StartSpan(traceID, parent, op.String(), st.name)
	if sub >= 0 {
		sp.SetSub(sub)
	}
	return sp
}

// Busy returns the cumulative service time across all requests served.
func (s *Server) Busy() time.Duration { return time.Duration(s.busyNS.Load()) }

// Workers returns the configured concurrency cap (0 = unlimited).
func (s *Server) Workers() int { return s.workerCap }

// Serve accepts connections from l until l is closed. It blocks; run it in
// a goroutine. Each connection's requests are served concurrently.
func (s *Server) Serve(l netsim.Listener) {
	s.connMu.Lock()
	s.listener = l
	closed := s.closed.Load()
	s.connMu.Unlock()
	if closed {
		l.Close()
		return
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		// Add under connMu: Shutdown flips closed before acquiring connMu,
		// so every Add either precedes its Wait or is refused above.
		s.wg.Add(1)
		s.connMu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn netsim.Conn) {
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	for {
		req, err := conn.Recv()
		if err != nil {
			return
		}
		if req.IsResp {
			continue // protocol violation; ignore
		}
		recvT := time.Now()
		s.wg.Add(1)
		go func(req *wire.Msg) {
			defer s.wg.Done()
			if req.Op == wire.OpBatch {
				// The batch envelope is pure framing: it takes no worker
				// slot itself — each sub-request competes for one — so a
				// batch can never deadlock a 1-worker server.
				s.serveBatch(conn, req, recvT)
				return
			}
			// At-most-once: a request carrying a dedup id either registers
			// as the first delivery (and records its outcome below) or is a
			// retried duplicate, answered by replaying the first execution's
			// response — after waiting for it if it is still running. The
			// duplicate path takes no worker slot: it performs no service
			// work.
			var ent *dedupEntry
			if req.Req != 0 {
				var dup bool
				if ent, dup = s.dedup.begin(req.Req); dup {
					<-ent.done
					if t := s.telem.Load(); t != nil {
						t.forOp(req.Op).dedup.Inc()
					}
					if f := s.flightRef.Load(); f != nil {
						f.j.Emit(flight.KindDedupReplay, f.source, req.Op.String(), req.Trace, 0, "")
					}
					resp := &wire.Msg{ID: req.ID, IsResp: true, Op: req.Op,
						Status: ent.status, ServiceNS: ent.service, Trace: req.Trace, Span: req.Span,
						Map: s.MapVer(), Lease: s.leaseSeq(), Body: ent.body}
					_ = conn.Send(resp)
					return
				}
			}
			if s.workers != nil {
				s.workers <- struct{}{}
				defer func() { <-s.workers }()
			}
			// Queue wait: receipt to handler start. With unlimited workers
			// this is just goroutine scheduling; with a worker cap it is the
			// time spent waiting for a CPU slot — the server-side queueing
			// the paper's saturation experiments exercise.
			status, body, service := s.execute(req.Op, req.Body, req.Req, req.Trace, req.Span, -1, time.Since(recvT))
			if ent != nil {
				ent.complete(status, body, uint64(service))
			}
			resp := &wire.Msg{ID: req.ID, IsResp: true, Op: req.Op,
				Status: status, ServiceNS: uint64(service), Trace: req.Trace, Span: req.Span,
				Map: s.MapVer(), Lease: s.leaseSeq(), Body: body}
			_ = conn.Send(resp)
		}(req)
	}
}

// execute runs one request (or one batched sub-request) through the full
// service pipeline: a server-side child span under parentSpan, modeled/
// measured service time, busy and served accounting, per-op telemetry, and
// slow-request logging stamped with the request's trace id. sub is the
// sub-request index inside a wire.OpBatch envelope (-1 outside a batch); it
// appears on the span and in the slow-request log line, so a slow batched
// sub-op is attributable to its position and opcode, not just the parent
// trace.
func (s *Server) execute(op wire.Op, reqBody []byte, req, trace, parentSpan uint64, sub int, queueWait time.Duration) (wire.Status, []byte, time.Duration) {
	var status wire.Status
	var body []byte
	sp := s.startSpan(trace, parentSpan, op, sub)
	s.mu.RLock()
	fn := s.serviceFn
	virtual := s.virtual[op]
	s.mu.RUnlock()
	var service time.Duration
	if fn != nil {
		service = fn(op, func() {
			status, body = s.dispatch(op, reqBody, req)
		})
	} else {
		t0 := time.Now()
		status, body = s.dispatch(op, reqBody, req)
		service = time.Since(t0)
	}
	service += virtual
	s.busyNS.Add(uint64(service))
	s.Served.Add(1)
	if status != wire.StatusOK {
		sp.SetStatus(status.String())
	}
	sp.Finish()
	if t := s.telem.Load(); t != nil {
		m := t.forOp(op)
		m.reqs.Inc()
		if status != wire.StatusOK {
			m.errs.Inc()
		}
		m.service.Record(service)
		m.queue.Record(queueWait)
	}
	if slow := time.Duration(s.slowNS.Load()); slow > 0 && service >= slow {
		if f := s.flightRef.Load(); f != nil {
			f.j.Emit(flight.KindSlowRequest, f.source, op.String(), trace, int64(service), status.String())
		}
		if sub >= 0 {
			log.Printf("rpc: slow request trace=%#x op=Batch[%d]=%s status=%s service=%v queue=%v",
				trace, sub, op, status, service, queueWait)
		} else {
			log.Printf("rpc: slow request trace=%#x op=%s status=%s service=%v queue=%v",
				trace, op, status, service, queueWait)
		}
	}
	return status, body, service
}

// serveBatch answers one wire.OpBatch request: every sub-request is
// dispatched to its registered handler across the server's worker pool
// (concurrently, each acquiring its own worker slot), and the one response
// carries a (status, body) pair per sub-request in sub-request order — a
// failing sub-request never disturbs its siblings. Each sub-request runs
// the full service pipeline under the envelope's trace id, so batched
// sub-ops appear individually in telemetry and slow-request logs, and the
// envelope's ServiceNS is the sum of sub-request service times (the
// server's CPU serializes the work even though one message carried it).
// Nested batches are rejected per-sub-request via the normal unknown-op
// path, since OpBatch never reaches the handler table.
func (s *Server) serveBatch(conn netsim.Conn, req *wire.Msg, recvT time.Time) {
	reply := func(st wire.Status, body []byte, service time.Duration) {
		resp := &wire.Msg{ID: req.ID, IsResp: true, Op: wire.OpBatch,
			Status: st, ServiceNS: uint64(service), Trace: req.Trace, Span: req.Span,
			Map: s.MapVer(), Lease: s.leaseSeq(), Body: body}
		_ = conn.Send(resp)
	}
	// The envelope gets its own server-side span under the client's span;
	// each sub-request's span hangs off the envelope span with its index.
	esp := s.startSpan(req.Trace, req.Span, wire.OpBatch, -1)
	subs, err := wire.DecodeBatch(req.Body)
	if err != nil {
		esp.SetStatus(wire.StatusInval.String())
		esp.Finish()
		reply(wire.StatusInval, []byte(err.Error()), 0)
		return
	}
	resps := make([]wire.SubResp, len(subs))
	services := make([]time.Duration, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if s.workers != nil {
				s.workers <- struct{}{}
				defer func() { <-s.workers }()
			}
			st, body, service := s.execute(subs[i].Op, subs[i].Body, 0, req.Trace, esp.ID(), i, time.Since(recvT))
			resps[i] = wire.SubResp{Status: st, Body: body}
			services[i] = service
		}(i)
	}
	wg.Wait()
	var total time.Duration
	for _, d := range services {
		total += d
	}
	esp.Finish()
	reply(wire.StatusOK, wire.EncodeBatchResp(resps), total)
}

func (s *Server) dispatch(op wire.Op, body []byte, req uint64) (wire.Status, []byte) {
	s.mu.RLock()
	mfn, mok := s.msgHandlers[op]
	fn, ok := s.handlers[op]
	s.mu.RUnlock()
	if mok {
		return mfn(req, body)
	}
	if !ok {
		return wire.StatusInval, []byte(fmt.Sprintf("unknown op %#x", uint16(op)))
	}
	return fn(body)
}

// Shutdown closes the listener and every established connection, then waits
// for in-flight requests to finish. Clients observe transport errors on
// outstanding and subsequent calls.
func (s *Server) Shutdown() {
	if s.closed.Swap(true) {
		return
	}
	s.connMu.Lock()
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

// ErrClientClosed is returned by calls on a closed client.
var ErrClientClosed = errors.New("rpc: client closed")

// Client issues calls over one connection. Calls may be made concurrently;
// responses are matched to requests by id. Every Call is exactly one network
// round trip, and the client counts them — the paper reports metadata
// latency in round trips, so this counter is the measurement hook.
type Client struct {
	conn    netsim.Conn
	nextID  atomic.Uint64
	trips   atomic.Uint64
	virtNS  atomic.Uint64
	linkVal atomic.Pointer[netsim.LinkConfig]

	mu      sync.Mutex
	pending map[uint64]chan *wire.Msg
	err     error

	closeOnce sync.Once
}

// NewClient wraps an established connection and starts its response reader.
func NewClient(conn netsim.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]chan *wire.Msg)}
	go c.readLoop()
	return c
}

// Dial connects to addr via d and returns a ready client.
func Dial(d netsim.Dialer, addr string) (*Client, error) {
	conn, err := d.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// SetLink installs the modeled network link for virtual-time accounting:
// each Call's virtual cost is the link's request+response delay plus the
// server-reported service time. The transport itself stays at loopback
// speed — the virtual clock is how experiments measure latency without
// depending on OS timer granularity.
func (c *Client) SetLink(link netsim.LinkConfig) {
	c.linkVal.Store(&link)
}

// VirtualTime returns the cumulative modeled time of all calls so far.
func (c *Client) VirtualTime() time.Duration {
	return time.Duration(c.virtNS.Load())
}

func (c *Client) readLoop() {
	for {
		m, err := c.conn.Recv()
		if err != nil {
			c.failAll(err)
			return
		}
		if !m.IsResp {
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[m.ID]
		if ok {
			delete(c.pending, m.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- m
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}

// Call sends one request and blocks for its response: Do with every optional
// CallSpec field off. The returned error covers transport failures only;
// application-level failures arrive as a non-OK status.
func (c *Client) Call(op wire.Op, body []byte) (wire.Status, []byte, error) {
	st, resp, _, err := c.Do(CallSpec{Op: op, Body: body})
	return st, resp, err
}

// CallSpec fully describes one RPC: the operation and body plus the wire
// header's correlation fields and the call's resilience bounds. The zero
// value of every optional field means "off" (untraced, no dedup id, no
// deadline).
type CallSpec struct {
	Op   wire.Op
	Body []byte
	// Ctx, if non-nil, bounds the call: when it is cancelled or its
	// deadline expires before a response arrives, Do returns early (a
	// deadline maps to the same wire.StatusDeadline error as Timeout; a
	// bare cancellation returns the context's error). It composes with
	// Timeout — whichever bound trips first wins. The request itself is
	// not revoked server-side; mutations stay protected by Req dedup.
	Ctx context.Context
	// Trace and Span are the correlation ids stamped on the wire header
	// (see wire.Msg).
	Trace, Span uint64
	// Req is the client-unique request id for server-side duplicate
	// suppression of retried non-idempotent requests (see wire.Msg.Req).
	Req uint64
	// Timeout bounds this attempt: if no response arrives in time the call
	// returns a wire.StatusDeadline error and the (possibly still
	// in-flight) response is discarded on arrival. On transports with
	// bounded sends (netsim.DeadlineSender, i.e. real TCP) the socket
	// write is bounded by the same timeout. Zero means wait forever.
	Timeout time.Duration
	// OnMap, if set, is invoked with the response header's cluster-map
	// version when it is non-zero — the hook by which a map holder notices,
	// on ordinary traffic, that the responder holds a newer map than its own.
	OnMap func(ver uint64)
	// OnLease, if set, is invoked with the response header's lease-recall
	// sequence when it is non-zero — the hook the client cache uses to
	// notice, on ordinary traffic, that the DMS recalled directory leases
	// it may still be caching (see internal/client lease coherence).
	OnLease func(seq uint64)
}

// Do issues the call described by spec and blocks for its response (or
// spec.Timeout). The returned error covers transport failures and deadline
// expiry — the latter distinguishable as wire.StatusOf(err) ==
// wire.StatusDeadline; application-level failures arrive as a non-OK
// status with a nil error.
func (c *Client) Do(spec CallSpec) (wire.Status, []byte, time.Duration, error) {
	if spec.Ctx != nil {
		if err := spec.Ctx.Err(); err != nil {
			return ctxStatus(err), nil, 0, ctxErr(err)
		}
	}
	id := c.nextID.Add(1)
	ch := make(chan *wire.Msg, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return wire.StatusIO, nil, 0, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	req := &wire.Msg{ID: id, Op: spec.Op, Trace: spec.Trace, Span: spec.Span, Req: spec.Req, Body: spec.Body}
	var sendErr error
	if ds, ok := c.conn.(netsim.DeadlineSender); ok && spec.Timeout > 0 {
		sendErr = ds.SendDeadline(req, spec.Timeout)
	} else {
		sendErr = c.conn.Send(req)
	}
	if sendErr != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return wire.StatusIO, nil, 0, sendErr
	}
	c.trips.Add(1)

	var timeout <-chan time.Time
	if spec.Timeout > 0 {
		t := time.NewTimer(spec.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	var ctxDone <-chan struct{}
	if spec.Ctx != nil {
		ctxDone = spec.Ctx.Done()
	}
	var resp *wire.Msg
	var ok bool
	select {
	case resp, ok = <-ch:
	case <-timeout:
		// Forget the pending call; a late response is dropped by readLoop.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return wire.StatusDeadline, nil, 0, wire.StatusDeadline.Err()
	case <-ctxDone:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		err := spec.Ctx.Err()
		return ctxStatus(err), nil, 0, ctxErr(err)
	}
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return wire.StatusIO, nil, 0, err
	}
	var virt time.Duration
	if lp := c.linkVal.Load(); lp != nil {
		virt += lp.Delay(req.WireSize()) + lp.Delay(resp.WireSize())
	}
	virt += time.Duration(resp.ServiceNS)
	c.virtNS.Add(uint64(virt))
	if resp.Map != 0 && spec.OnMap != nil {
		spec.OnMap(resp.Map)
	}
	if resp.Lease != 0 && spec.OnLease != nil {
		spec.OnLease(resp.Lease)
	}
	return resp.Status, resp.Body, virt, nil
}

// ctxStatus maps a context error to the wire status Do reports: an expired
// deadline is indistinguishable from a per-attempt timeout, while a bare
// cancellation is not a server condition at all and surfaces as StatusIO
// with the context's own error.
func ctxStatus(err error) wire.Status {
	if errors.Is(err, context.DeadlineExceeded) {
		return wire.StatusDeadline
	}
	return wire.StatusIO
}

// ctxErr converts a context error to the error Do returns: deadline expiry
// becomes the StatusDeadline error (which errors.Is-matches
// context.DeadlineExceeded), cancellation passes through untouched so
// callers can recognize context.Canceled.
func ctxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return wire.StatusDeadline.Err()
	}
	return err
}

// Trips returns the number of round trips issued so far. Callers snapshot it
// around an operation to count that operation's network cost.
func (c *Client) Trips() uint64 { return c.trips.Load() }

// Close tears down the connection; outstanding calls fail.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() {
		err = c.conn.Close()
		c.failAll(ErrClientClosed)
	})
	return err
}
