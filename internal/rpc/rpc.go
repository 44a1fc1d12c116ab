// Package rpc is the small request/response layer LocoFS servers and
// clients speak over a netsim transport: numbered requests multiplexed over
// a connection, dispatched to per-op handlers on the server side.
//
// A server runs each request to completion on its connection's reader
// goroutine and answers a burst of buffered requests with one flush. Only
// ops registered as blocking (Server.Blocking) — handlers that can wait on
// another node or goroutine — are spilled to a goroutine of their own.
//
// A client has no reader goroutine: the callers waiting on their calls read
// the connection, one at a time, each handing the other callers' responses
// to them (see Client).
package rpc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/chash"
	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// Metric names recorded by instrumented servers and clients. Histograms
// observe seconds (Prometheus convention) bucketed logarithmically; every
// series carries an op label with the wire.Op name.
const (
	MetricRequests = "locofs_rpc_requests_total"  // server: completed requests
	MetricErrors   = "locofs_rpc_errors_total"    // server: non-OK responses
	MetricService  = "locofs_rpc_service_seconds" // server: handler service time (measured + modeled)
	MetricQueue    = "locofs_rpc_queue_seconds"   // server: request's arrival (its socket read) -> handler start
	MetricRTT      = "locofs_client_rtt_seconds"  // client: wall-clock round trip
	MetricCalls    = "locofs_client_calls_total"  // client: calls issued
)

// opMetrics is one op's instrument handles. Service and queue time record
// through rotating-window histograms, so the same observation stream yields
// both lifetime aggregates (/metrics histogram families) and time-local
// quantiles/rates (the _window gauge families and the SLO layer).
type opMetrics struct {
	reqs    *telemetry.Counter
	errs    *telemetry.Counter
	service *telemetry.Windowed
	queue   *telemetry.Windowed
}

// opEntry is everything the request path needs to know about one op, found
// with one table lookup: its handler and its instrument handles. The
// handles are created on the op's first request, so an op nobody calls puts
// no zero-count series into /metrics.
type opEntry struct {
	name     string         // the op label; "unknown" for every unregistered op
	fn       MsgHandlerFunc // nil on the unknown entry
	blocking bool           // spilled off the connection's reader (Server.Blocking)
	once     sync.Once
	m        opMetrics
}

// run invokes the op's handler; the unknown entry has none.
func (e *opEntry) run(op wire.Op, req, trace uint64, body []byte) (wire.Status, []byte) {
	if e.fn == nil {
		return wire.StatusInval, []byte(fmt.Sprintf("unknown op %#x", uint16(op)))
	}
	return e.fn(req, trace, body)
}

func (e *opEntry) metrics(reg *telemetry.Registry) *opMetrics {
	e.once.Do(func() {
		label := telemetry.L("op", e.name)
		e.m = opMetrics{
			reqs:    reg.Counter(MetricRequests, label),
			errs:    reg.Counter(MetricErrors, label),
			service: reg.Windowed(MetricService, label),
			queue:   reg.Windowed(MetricQueue, label),
		}
	})
	return &e.m
}

// HandlerFunc serves one request body and returns a status and response
// body. Handlers of different connections run concurrently, so they must be
// safe for concurrent use. Unless its op is registered as blocking, a
// handler runs on its connection's reader: the requests queued behind it on
// that connection wait until it returns, so it must not wait on another
// node or goroutine (see Server.Blocking).
type HandlerFunc func(body []byte) (wire.Status, []byte)

// MsgHandlerFunc is a HandlerFunc that also receives the request's dedup id
// (wire.Msg.Req; 0 when the client sent none) and trace id (wire.Msg.Trace),
// so a replayed duplicate is journaled under the request's trace.
type MsgHandlerFunc func(req, trace uint64, body []byte) (wire.Status, []byte)

// ServiceFunc executes run (which invokes the handler) and returns the
// request's modeled service time. Implementations may serialize requests to
// read per-request deltas from shared counters.
type ServiceFunc func(op wire.Op, run func()) time.Duration

// Config is everything a Server is built from. A server is configured
// exactly once, here; what remains after New is registration (Handle,
// HandleMsg, SetLeaseFunc), which ends when Serve starts.
type Config struct {
	// Obs is the server's observability (nil = off): per-op request/error
	// counts and service/queue histograms into its registry (see the
	// Metric* names), a server-side span per request under the wire
	// header's parent span, slow requests and map installs into its
	// journal, and a log line carrying the trace id for every request at
	// least Obs.Slow slow.
	Obs *obs.Handle
	// Service, when set, replaces wall-clock measurement of handler time
	// (meaningless under CPU contention on small machines) with a modeled
	// service time: experiments price the exact KV work of each request,
	// baselines charge a calibrated per-op cost.
	Service ServiceFunc
}

// Server dispatches requests to registered handlers.
type Server struct {
	// Fixed by New and by registration, which Serve ends: the request path
	// reads all of these as plain fields, without a lock.
	obs     *obs.Handle
	service ServiceFunc
	ops     map[wire.Op]*opEntry
	unknown opEntry
	// lease, when set (DMS only), supplies the current lease-recall sequence
	// stamped on every response header's Lease field, the same piggyback
	// channel the map version uses for routing staleness.
	lease   func() uint64
	serving atomic.Bool // set by Serve: registration is over

	wg       sync.WaitGroup
	closed   atomic.Bool
	listener netsim.Listener

	connMu sync.Mutex
	conns  map[netsim.Conn]struct{}

	// cmap holds the installed cluster map with this server's coordinates in
	// it (nil until one is installed); its version is stamped on every
	// response header. It is the one thing that does change while serving.
	// mapMu serializes installs (a cold path).
	mapMu sync.Mutex
	cmap  atomic.Pointer[mapState]

	// Served counts completed requests, for load accounting in experiments.
	Served atomic.Uint64
	// busyNS accumulates total service time (measured + modeled) across
	// all requests; experiments derive server-bound throughput from it.
	busyNS atomic.Uint64
}

// NewServer returns an unobserved Server measuring wall-clock service time:
// New with the zero Config.
func NewServer() *Server { return New(Config{}) }

// New returns a Server with default Ping, OpGetMap and OpSetMap handlers
// registered. Requests of different connections run in parallel, one
// connection's in arrival order on its reader (see Serve).
func New(cfg Config) *Server {
	s := &Server{
		obs:     cfg.Obs,
		service: cfg.Service,
		ops:     make(map[wire.Op]*opEntry),
		unknown: opEntry{name: "unknown"},
		conns:   make(map[netsim.Conn]struct{}),
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
	s.obs.Emit(obs.KindEpoch, "", 0, int64(m.Ver), "map installed")
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

// registering panics once Serve has started: the request path reads the
// handler table and the lease source without a lock, so a late registration
// would be a data race. Failing loudly beats racing quietly.
func (s *Server) registering(what string) {
	if s.serving.Load() {
		panic("rpc: " + what + " after Serve")
	}
}

// Handle registers fn for op, replacing any previous handler. Registration
// ends when Serve starts; Handle panics after that.
func (s *Server) Handle(op wire.Op, fn HandlerFunc) {
	s.HandleMsg(op, func(_, _ uint64, body []byte) (wire.Status, []byte) { return fn(body) })
}

// HandleMsg is Handle for a handler that wants the request's dedup and trace
// ids. The server only hands them over: a handler registered this way owns
// at-most-once for its op, because only the service that holds the state
// can tell whether a retried mutation already executed (DESIGN.md §11).
func (s *Server) HandleMsg(op wire.Op, fn MsgHandlerFunc) {
	s.registering("Handle")
	s.ops[op] = &opEntry{name: op.String(), fn: fn}
}

// Blocking marks ops whose handlers can wait on another node or goroutine
// — replication, a two-phase-commit peer, a fan-out — so a request for one
// runs on a goroutine of its own instead of the connection's reader, which
// goes on answering the requests behind it. Call it after registering the
// ops' handlers; it panics for an op with none, and after Serve.
func (s *Server) Blocking(ops ...wire.Op) {
	s.registering("Blocking")
	for _, op := range ops {
		e := s.ops[op]
		if e == nil {
			panic(fmt.Sprintf("rpc: Blocking(%v) before its handler", op))
		}
		e.blocking = true
	}
}

// SetLeaseFunc registers the source of the lease-recall sequence stamped on
// every response (see wire.Msg.Lease). fn must be safe for concurrent use
// and cheap — it runs on every response send. The DMS partition node
// registers its lease table's published sequence here during Attach. Like
// Handle, it panics once Serve has started.
func (s *Server) SetLeaseFunc(fn func() uint64) {
	s.registering("SetLeaseFunc")
	s.lease = fn
}

// Busy returns the cumulative service time across all requests served.
func (s *Server) Busy() time.Duration { return time.Duration(s.busyNS.Load()) }

// Serve ends registration, then accepts connections from l until l is
// closed. It blocks; run it in a goroutine. Each connection has one reader
// goroutine, which runs its requests to completion in arrival order and
// flushes their responses when no further whole request is buffered, so a
// burst of k requests costs one socket write. Requests for blocking ops
// (Blocking) are spilled to goroutines; their responses go out when they
// finish.
func (s *Server) Serve(l netsim.Listener) {
	s.serving.Store(true)
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
	// held: an inline response waits in the send buffer. A failed flush
	// closes conn, which the next Recv reports, so flush errors need no
	// handling here.
	held := false
	for {
		req, err := conn.Recv()
		if err != nil {
			if held {
				_ = conn.Flush() // answer what was read before a bad frame
			}
			return
		}
		if req.IsResp {
			continue // protocol violation; ignore
		}
		arrived := conn.Arrived()
		e := s.entry(req.Op)
		if !e.blocking {
			status, body, service := s.execute(e, req, arrived)
			held = conn.Pending()
			s.reply(conn, req, status, body, uint64(service), held)
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			status, body, service := s.execute(e, req, arrived)
			s.reply(conn, req, status, body, uint64(service), false)
		}()
		if held && !conn.Pending() {
			_ = conn.Flush()
			held = false
		}
	}
}

// reply sends req's response: the one place a response header is built, for
// inline and spilled requests alike. Every response echoes the request's
// correlation ids and carries the installed map's version and the
// lease-recall sequence. more leaves it in the send buffer for the
// reader's next response or flush to carry.
func (s *Server) reply(conn netsim.Conn, req *wire.Msg, st wire.Status, body []byte, serviceNS uint64, more bool) {
	resp := &wire.Msg{ID: req.ID, IsResp: true, Op: req.Op,
		Status: st, ServiceNS: serviceNS, Trace: req.Trace, Span: req.Span,
		Map: s.MapVer(), Body: body}
	if s.lease != nil {
		resp.Lease = s.lease()
	}
	if more {
		_ = conn.SendMore(resp)
	} else {
		_ = conn.Send(resp)
	}
}

// entry is the request path's one lookup. Unregistered ops share one entry,
// so what a peer sends cannot grow the table or the registry.
func (s *Server) entry(op wire.Op) *opEntry {
	if e := s.ops[op]; e != nil {
		return e
	}
	return &s.unknown
}

// execute runs one request through the full service pipeline: a
// server-side child span under the request's parent span, modeled/measured
// service time, busy and served accounting, per-op telemetry, and
// slow-request logging stamped with the request's trace id. Its queue wait
// runs from arrived, when the request's bytes came in, to now, so a request
// answered late in a burst counts the handlers it waited behind.
func (s *Server) execute(e *opEntry, req *wire.Msg, arrived time.Time) (wire.Status, []byte, time.Duration) {
	queueWait := time.Since(arrived)
	var status wire.Status
	var body []byte
	var service time.Duration
	sp := s.obs.StartSpan(req.Trace, req.Span, req.Op.String())
	if s.service != nil {
		service = s.service(req.Op, func() { status, body = e.run(req.Op, req.Req, req.Trace, req.Body) })
	} else {
		t0 := time.Now()
		status, body = e.run(req.Op, req.Req, req.Trace, req.Body)
		service = time.Since(t0)
	}
	s.busyNS.Add(uint64(service))
	s.Served.Add(1)
	if status != wire.StatusOK {
		sp.SetStatus(status.String())
	}
	sp.Finish()
	if reg := s.obs.Registry(); reg != nil {
		m := e.metrics(reg)
		m.reqs.Inc()
		if status != wire.StatusOK {
			m.errs.Inc()
		}
		m.service.Record(service)
		m.queue.Record(queueWait)
	}
	if s.obs.IsSlow(service) {
		s.obs.Emit(obs.KindSlowRequest, req.Op.String(), req.Trace, int64(service), status.String())
		log.Printf("rpc: slow request trace=%#x op=%s status=%s service=%v queue=%v",
			req.Trace, req.Op, status, service, queueWait)
	}
	return status, body, service
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
// responses are matched to requests by id. The client counts round trips —
// the paper reports metadata latency in them, so this counter is the
// measurement hook: a Do (or Call) is one, and so is a Flush that sends
// calls started since the last one, however many it carries, because the
// server answers a burst of requests with one write (see Server.Serve).
//
// No goroutine of its own reads the connection: the callers waiting on
// their calls do, one at a time (the read role). A caller that finds
// nobody reading reads the connection itself until its own response
// arrives, handing every other call's response to that call's waiter on
// the way; it then takes the responses already buffered, and passes the
// role to a waiting caller or drops it. So a lone call costs its caller one
// wake-up, from the socket, and no hand-off. A waiter bounded by a timeout
// or a cancellable context never blocks in a read, which it could not
// abandon without breaking the framing: when nobody reads for it, a reader
// goroutine does, until no call is pending. Because nothing reads an idle
// connection, its death is found by the next call's send or read, not at
// once; that call fails like any transport error, and the client's retry
// loop redials.
type Client struct {
	conn    netsim.Conn
	nextID  atomic.Uint64
	trips   atomic.Uint64
	started atomic.Uint64 // calls started (Start) and not yet flushed
	virtNS  atomic.Uint64
	linkVal atomic.Pointer[netsim.LinkConfig]

	mu      sync.Mutex
	pending map[uint64]*mailbox // registered calls by request id
	err     error
	reading bool // a goroutine holds the read role

	// yielding is held by the one busy caller that has yielded before
	// flushing; see send.
	yielding atomic.Bool

	closeOnce sync.Once
}

// mailbox is where a call's outcome is delivered: its response, nil when the
// connection failed, or roleToken, which hands its waiter the read role.
// Each call gets one delivery. Mailboxes are pooled, so a call allocates no
// channel.
type mailbox struct {
	ch   chan *wire.Msg // capacity 1
	wait waitState      // guarded by Client.mu
}

// waitState is how a call's waiter waits, which decides whether it can be
// handed the read role.
type waitState uint8

const (
	notWaiting waitState = iota
	parked               // blocked on its mailbox with no bound: can read
	bounded              // blocked under a timeout or context: must not read
)

var mailboxes = sync.Pool{New: func() any { return &mailbox{ch: make(chan *wire.Msg, 1)} }}

// roleToken, delivered to a parked waiter's mailbox, passes it the read role.
var roleToken = new(wire.Msg)

// release returns mb to the pool once no delivery can reach it any more: its
// call is out of pending, and every delivery happens under Client.mu in the
// critical section that took the call out, so at most one is left to drain.
func release(mb *mailbox) {
	select {
	case <-mb.ch:
	default:
	}
	mb.wait = notWaiting
	mailboxes.Put(mb)
}

// NewClient wraps an established connection. It starts no goroutine: the
// connection is read by the callers that wait on it (see Client).
func NewClient(conn netsim.Conn) *Client {
	return &Client{conn: conn, pending: make(map[uint64]*mailbox)}
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

// failAll records the connection's failure and fails every pending call.
// A mailbox already holding the role token is left alone: its waiter reads
// next and finds the failure itself.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, mb := range c.pending {
		delete(c.pending, id)
		select {
		case mb.ch <- nil:
		default:
		}
	}
	c.mu.Unlock()
}

// deliverLocked hands a response to its call's mailbox. A response nobody
// waits for any more (its call timed out or was abandoned) is dropped.
// Caller holds c.mu.
func (c *Client) deliverLocked(m *wire.Msg) {
	if mb, ok := c.pending[m.ID]; ok {
		delete(c.pending, m.ID)
		mb.wait = notWaiting
		mb.ch <- m
	}
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
// spec.Timeout): Start, except that the request is sent at once, then Wait.
// The returned error covers transport failures and deadline expiry — the
// latter distinguishable as wire.StatusOf(err) == wire.StatusDeadline;
// application-level failures arrive as a non-OK status with a nil error.
func (c *Client) Do(spec CallSpec) (wire.Status, []byte, time.Duration, error) {
	cl := c.start(spec, false)
	return cl.Wait()
}

// Call is one started call: Start (or Do) has registered it and put its
// request on the connection, and Wait collects its outcome.
type Call struct {
	c     *Client
	spec  CallSpec
	req   *wire.Msg
	mb    *mailbox
	timer *time.Timer // spec.Timeout, running from the send
	// st and err are a failed start's outcome, which Wait reports.
	st  wire.Status
	err error
}

// Start registers the call described by spec and appends its request to the
// connection's send buffer without flushing it: the caller flushes (Flush)
// when it is done starting calls, which lets it start them while holding a
// lock it must not hold across a socket write. Calls started in order on
// one client reach the wire in that order. spec.Timeout runs from the
// append and, on transports with bounded sends, also bounds whichever
// flush writes the request. Wait collects the outcome.
func (c *Client) Start(spec CallSpec) Call { return c.start(spec, true) }

// Flush writes every request Start appended, or leaves them to the write in
// progress, and counts one round trip when calls were started since the
// last Flush. A failed write closes the connection, which fails the calls it
// carried, so callers may ignore the error and learn it from Wait.
func (c *Client) Flush() error {
	if c.started.Swap(0) > 0 {
		c.trips.Add(1)
	}
	return c.conn.Flush()
}

// start is the one call path: register the call and send its request, at
// once or (more) into the send buffer.
func (c *Client) start(spec CallSpec, more bool) Call {
	cl := Call{c: c, spec: spec}
	if spec.Ctx != nil {
		if err := spec.Ctx.Err(); err != nil {
			cl.st, cl.err = ctxStatus(err), ctxErr(err)
			return cl
		}
	}
	id := c.nextID.Add(1)
	mb := mailboxes.Get().(*mailbox)
	c.mu.Lock()
	if c.err != nil {
		cl.st, cl.err = wire.StatusIO, c.err
		c.mu.Unlock()
		mailboxes.Put(mb)
		return cl
	}
	c.pending[id] = mb
	busy := len(c.pending) > 1
	c.mu.Unlock()

	cl.req = &wire.Msg{ID: id, Op: spec.Op, Trace: spec.Trace, Span: spec.Span, Req: spec.Req, Body: spec.Body}
	if sendErr := c.send(cl.req, spec.Timeout, busy, more); sendErr != nil {
		c.forget(id, mb)
		cl.st, cl.err = wire.StatusIO, sendErr
		return cl
	}
	if more {
		c.started.Add(1)
	} else {
		c.trips.Add(1)
	}
	cl.mb = mb
	if spec.Timeout > 0 {
		cl.timer = time.NewTimer(spec.Timeout)
	}
	return cl
}

// forget unregisters a call nobody waits for any more and releases its
// mailbox; its response, if one still arrives, is dropped by whoever reads.
func (c *Client) forget(id uint64, mb *mailbox) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	release(mb)
}

// Wait blocks for the call's response, its timeout or its context, with
// Do's results. Call it once.
func (cl *Call) Wait() (wire.Status, []byte, time.Duration, error) {
	if cl.mb == nil {
		return cl.st, nil, 0, cl.err
	}
	c, spec, mb := cl.c, &cl.spec, cl.mb
	cl.mb = nil
	resp, st, err := c.await(cl, mb)
	if err != nil {
		return st, nil, 0, err
	}
	release(mb)
	if resp == nil {
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
		virt += lp.Delay(cl.req.WireSize()) + lp.Delay(resp.WireSize())
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

// await returns cl's response, or nil once the connection has failed. An
// unbounded waiter takes the read role if nobody holds it, and otherwise
// parks on its mailbox, where the reader delivers its response or passes it
// the role. A waiter bounded by a timeout or a context never reads: it
// starts a reader goroutine if nobody reads, and returns an error when its
// bound trips first.
func (c *Client) await(cl *Call, mb *mailbox) (*wire.Msg, wire.Status, error) {
	id := cl.req.ID
	var ctxDone <-chan struct{}
	if cl.spec.Ctx != nil {
		ctxDone = cl.spec.Ctx.Done()
	}
	isBounded := cl.timer != nil || ctxDone != nil
	c.mu.Lock()
	_, isPending := c.pending[id]
	switch {
	case !isPending: // delivered (or failed) already
	case isBounded:
		mb.wait = bounded
		if !c.reading {
			c.reading = true
			go c.readPending()
		}
	case c.reading:
		mb.wait = parked
	default:
		c.reading = true
		c.mu.Unlock()
		return c.lead(id), 0, nil
	}
	c.mu.Unlock()
	if !isBounded {
		if m := <-mb.ch; m != roleToken {
			return m, 0, nil
		}
		return c.lead(id), 0, nil
	}
	var timeout <-chan time.Time
	if cl.timer != nil {
		defer cl.timer.Stop()
		timeout = cl.timer.C
	}
	select {
	case m := <-mb.ch:
		return m, 0, nil
	case <-timeout:
		c.forget(id, mb)
		return nil, wire.StatusDeadline, wire.StatusDeadline.Err()
	case <-ctxDone:
		c.forget(id, mb)
		err := cl.spec.Ctx.Err()
		return nil, ctxStatus(err), ctxErr(err)
	}
}

// lead holds the read role until call id's response arrives, delivering the
// other calls' responses it reads on the way, then the responses already
// buffered, which cost no socket read, and passes the role on. It returns
// nil once the connection has failed.
func (c *Client) lead(id uint64) *wire.Msg {
	var own *wire.Msg
	for own == nil || c.conn.Pending() {
		m, err := c.conn.Recv()
		if err != nil {
			c.failAll(err)
			break
		}
		if !m.IsResp {
			continue
		}
		c.mu.Lock()
		if m.ID == id {
			delete(c.pending, id)
			own = m
		} else {
			c.deliverLocked(m)
		}
		c.mu.Unlock()
	}
	c.pass()
	return own
}

// pass ends a caller's read role: it goes to a parked waiter, which reads
// next; to a reader goroutine when the only waiters are bounded ones, which
// must not read; or to nobody, and the next caller to wait takes it.
func (c *Client) pass() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		boundedWaiter := false
		for _, mb := range c.pending {
			switch mb.wait {
			case parked:
				mb.wait = notWaiting
				mb.ch <- roleToken
				return
			case bounded:
				boundedWaiter = true
			}
		}
		if boundedWaiter {
			go c.readPending()
			return
		}
	}
	c.reading = false
}

// readPending is the reader for bounded waiters, which never read: it holds
// the read role until no call is pending, delivering every response.
func (c *Client) readPending() {
	for {
		m, err := c.conn.Recv()
		if err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		if m.IsResp {
			c.deliverLocked(m)
		}
		if len(c.pending) == 0 {
			c.reading = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
}

// send puts req on the connection. A started call (more) only appends its
// frame; its caller flushes. A lone call (busy false: no other call
// outstanding) sends at once. A busy call appends its frame and then either
// leaves it to the caller holding yielding, whose flush comes after the
// claim failed and so carries it, or claims yielding itself: it yields the P
// once, so that the callers the same burst of responses woke append their
// frames too, then releases the claim and flushes them all in one write. A
// lone call never yields: on an idle connection nobody would join it, and
// the yield would only wake an idle P. A call with a send deadline does not
// combine either: its frame carries the deadline, which bounds whichever
// flush writes it, and it is sent at once unless started.
func (c *Client) send(req *wire.Msg, timeout time.Duration, busy, more bool) error {
	if timeout > 0 {
		if ds, ok := c.conn.(netsim.DeadlineSender); ok {
			if more {
				return ds.SendMoreDeadline(req, timeout)
			}
			return ds.SendDeadline(req, timeout)
		}
	}
	if more {
		return c.conn.SendMore(req)
	}
	if !busy {
		return c.conn.Send(req)
	}
	if err := c.conn.SendMore(req); err != nil {
		return err
	}
	if !c.yielding.CompareAndSwap(false, true) {
		return nil
	}
	runtime.Gosched()
	c.yielding.Store(false)
	return c.conn.Flush()
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

// Trips returns the number of round trips issued so far: one per Do, one per
// Flush of started calls. Callers snapshot it around an operation to count
// that operation's network cost.
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
