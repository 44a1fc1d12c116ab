package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// span is one traced interval. Spans of one client operation share Trace;
// Parent is the span that caused this one (0 for the root). Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names. The tracer lives entirely in the benchmark: it wraps the
// calls into each layer and records nothing inside the program.
const (
	spanOp      = "client.op/" // "client.op/<class>": one Client call
	spanCall    = "rpc.call"   // request sent -> matching response received, on the client's conn
	spanHandler = ".handler"   // "<layer>.handler": synthetic, as long as the response's ServiceNS
)

// tracer collects spans in memory; dump writes them out at the end. It
// serves the serial pass, where exactly one client operation is in progress,
// so an RPC's parent is simply the operation in progress.
type tracer struct {
	epoch   time.Time
	layerOf func(addr string) string

	mu     sync.Mutex
	spans  []span
	nextID uint64
	cur    span // the client.op in progress (ID 0 = none)
}

func newTracer(layerOf func(addr string) string) *tracer {
	return &tracer{epoch: time.Now(), layerOf: layerOf}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens the root span of one client operation.
func (t *tracer) begin(class string) {
	t.mu.Lock()
	t.nextID++
	t.cur = span{ID: t.nextID, Trace: t.nextID, Name: spanOp + class, Start: t.now()}
	t.mu.Unlock()
}

// end closes the operation in progress.
func (t *tracer) end() {
	t.mu.Lock()
	t.cur.End = t.now()
	t.spans = append(t.spans, t.cur)
	t.cur = span{}
	t.mu.Unlock()
}

// call records one finished RPC under the operation in progress, and the
// synthetic handler span inside it. The handler's position inside the call
// is not observable from outside the server, so it is centred; only its
// length matters to the self-time arithmetic.
func (t *tracer) call(layer string, start, end int64, serviceNS uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur.ID == 0 {
		return // background traffic (dial-time fetches), not part of any op
	}
	t.nextID++
	c := span{ID: t.nextID, Parent: t.cur.ID, Trace: t.cur.Trace, Name: spanCall, Start: start, End: end}
	t.spans = append(t.spans, c)
	svc := int64(serviceNS)
	if svc > end-start {
		svc = end - start
	}
	t.nextID++
	hs := start + (end-start-svc)/2
	t.spans = append(t.spans, span{ID: t.nextID, Parent: c.ID, Trace: c.Trace, Name: layer + spanHandler, Start: hs, End: hs + svc})
}

// traceDialer wraps a netsim.Dialer so that every connection the client
// opens reports its request/response pairs to the tracer.
type traceDialer struct {
	inner netsim.Dialer
	t     *tracer
}

func (d traceDialer) Dial(addr string) (netsim.Conn, error) {
	c, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, t: d.t, layer: d.t.layerOf(addr), sent: make(map[uint64]int64)}, nil
}

// traceConn matches each request to its response by Msg.ID.
type traceConn struct {
	netsim.Conn
	t     *tracer
	layer string

	mu   sync.Mutex
	sent map[uint64]int64 // request id -> send start
}

func (c *traceConn) Send(m *wire.Msg) error {
	if !m.IsResp {
		c.mu.Lock()
		c.sent[m.ID] = c.t.now()
		c.mu.Unlock()
	}
	return c.Conn.Send(m)
}

func (c *traceConn) Recv() (*wire.Msg, error) {
	m, err := c.Conn.Recv()
	if err != nil || !m.IsResp {
		return m, err
	}
	end := c.t.now()
	c.mu.Lock()
	start, ok := c.sent[m.ID]
	delete(c.sent, m.ID)
	c.mu.Unlock()
	if ok {
		c.t.call(c.layer, start, end, m.ServiceNS)
	}
	return m, nil
}

// dump writes every span as one JSON array.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover. Overlapping children (a parallel
// fan-out) are counted once, and a child is clipped to its parent.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// opBreakdown is where the time of the average traced operation went, in
// microseconds per operation. Client + Transit + the handlers add up to
// Total whenever an operation's RPCs do not overlap.
type opBreakdown struct {
	Ops     int
	Total   float64            // client.op duration
	Client  float64            // client.op self time: the client library, plus waking the caller
	Transit float64            // rpc.call self time: the call minus the server's ServiceNS
	Handler map[string]float64 // "<layer>.handler" time by layer
	Calls   float64            // RPCs per operation
}

// breakdown reduces the spans to one opBreakdown per op class and one,
// under "", for all operations together.
func breakdown(spans []span) map[string]*opBreakdown {
	self := selfTimes(spans)
	rootClass := make(map[uint64]string) // trace -> class
	out := map[string]*opBreakdown{"": {Handler: map[string]float64{}}}
	for _, s := range spans {
		if s.Parent == 0 {
			class := s.Name[len(spanOp):]
			rootClass[s.Trace] = class
			if out[class] == nil {
				out[class] = &opBreakdown{Handler: map[string]float64{}}
			}
		}
	}
	for _, s := range spans {
		for _, b := range []*opBreakdown{out[""], out[rootClass[s.Trace]]} {
			us := float64(self[s.ID]) / 1e3
			switch {
			case s.Parent == 0:
				b.Ops++
				b.Total += float64(s.End-s.Start) / 1e3
				b.Client += us
			case s.Name == spanCall:
				b.Calls++
				b.Transit += us
			default:
				b.Handler[s.Name[:len(s.Name)-len(spanHandler)]] += us
			}
		}
	}
	for _, b := range out {
		if b.Ops == 0 {
			continue
		}
		n := float64(b.Ops)
		b.Total, b.Client, b.Transit, b.Calls = b.Total/n, b.Client/n, b.Transit/n, b.Calls/n
		for k := range b.Handler {
			b.Handler[k] /= n
		}
	}
	return out
}
