// Package netsim provides the message transports LocoFS runs on.
//
// The paper's evaluation is dominated by network round trips: its clusters
// are connected by 1 GbE with a measured RTT of 0.174 ms, and metadata
// latencies are reported normalized to that RTT. To reproduce those
// experiments deterministically on one machine, netsim offers an in-process
// transport that injects a configurable one-way delay (plus an optional
// bandwidth term) into every message, alongside a real TCP transport with
// identical semantics for actual deployments.
package netsim

import (
	"errors"
	"sync"
	"time"

	"locofs/internal/wire"
)

// Conn is a bidirectional, ordered message pipe. Send, SendMore and Flush
// may be called concurrently; Recv, Pending and Arrived belong to the one
// goroutine that reads.
//
// One send rule serves both ends of a connection: a sent message is
// appended to the connection's send buffer, and goes out in the next write
// that finds it. Send flushes unless a write is already in progress, whose
// writer then writes again before it returns; SendMore leaves the flush to
// a later Send or Flush. So the messages appended during one write share
// the next. A message written but never flushed because its connection
// failed is not lost silently: a failed write closes the connection, so
// both ends' Recv report it. The in-process pipe buffers nothing, so every
// send is delivered at once.
type Conn interface {
	// Send transmits m under the send rule above.
	Send(m *wire.Msg) error
	// SendMore writes m without flushing: the caller promises a later Send
	// or Flush on this connection.
	SendMore(m *wire.Msg) error
	// Flush puts everything written so far on the wire, or leaves it to
	// the write already in progress, whose writer writes until nothing is
	// left.
	Flush() error
	Recv() (*wire.Msg, error)
	// Pending reports whether Recv can return a whole message without
	// waiting on the peer.
	Pending() bool
	// Arrived is when the message Recv last returned became receivable:
	// the end of the socket read that completed it, or its delivery time
	// on the in-process pipe.
	Arrived() time.Time
	Close() error
}

// Listener accepts server-side Conns.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// Dialer opens client-side Conns to named endpoints.
type Dialer interface {
	Dial(addr string) (Conn, error)
}

// ErrClosed is returned by operations on a closed Conn, Listener or Network.
var ErrClosed = errors.New("netsim: closed")

// LinkConfig models one network link.
type LinkConfig struct {
	// RTT is the round-trip time; each message is delayed RTT/2 one way.
	RTT time.Duration
	// Bandwidth in bytes/second adds a size-proportional serialization
	// delay. Zero means infinite bandwidth.
	Bandwidth float64
}

// Paper1GbE is the link measured in the paper: 0.174 ms RTT, 1 Gbps.
var Paper1GbE = LinkConfig{RTT: 174 * time.Microsecond, Bandwidth: 125e6}

// Loopback is a zero-latency, infinite-bandwidth link, used for the
// co-located experiments (Fig 10).
var Loopback = LinkConfig{}

// Delay returns the one-way delay for a message of size bytes.
func (lc LinkConfig) Delay(size int) time.Duration {
	d := lc.RTT / 2
	if lc.Bandwidth > 0 {
		d += time.Duration(float64(size) / lc.Bandwidth * float64(time.Second))
	}
	return d
}

// Network is an in-process fabric of named endpoints joined by simulated
// links. It is safe for concurrent use.
type Network struct {
	link LinkConfig

	mu        sync.Mutex
	listeners map[string]*simListener
	conns     []*pipeEnd
	faults    map[string]*faultState // per-address injected faults
	closed    bool
}

// NewNetwork returns a fabric whose links all share the given configuration.
func NewNetwork(link LinkConfig) *Network {
	return &Network{link: link, listeners: make(map[string]*simListener)}
}

// Link returns the fabric's link configuration.
func (n *Network) Link() LinkConfig { return n.link }

// Listen registers addr and returns its listener. Listening twice on one
// address is an error.
func (n *Network) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, errors.New("netsim: address in use: " + addr)
	}
	l := &simListener{net: n, addr: addr, backlog: make(chan Conn, 128)}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to addr, returning the client half of a fresh pipe.
func (n *Network) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, errors.New("netsim: no listener at " + addr)
	}
	client, server := newPipePair(n.link)
	client.fault, server.fault = n.fault(addr), n.fault(addr)
	if err := l.enqueue(server); err != nil {
		client.Close()
		return nil, err
	}
	n.mu.Lock()
	n.conns = append(n.conns, client, server)
	// Long-lived fabrics accumulate many short-lived connections
	// (e.g. workload clients); prune the already-closed ones so the
	// tracking list stays proportional to live connections.
	if len(n.conns) >= 4096 {
		live := n.conns[:0]
		for _, c := range n.conns {
			select {
			case <-c.closed:
			default:
				live = append(live, c)
			}
		}
		n.conns = live
	}
	n.mu.Unlock()
	return client, nil
}

// Close tears down the fabric: all listeners and every open connection, so
// server loops blocked in Recv unwind and Shutdown can complete.
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	for _, l := range n.listeners {
		l.shutdown()
	}
	n.listeners = nil
	for _, c := range n.conns {
		c.Close()
	}
	n.conns = nil
	return nil
}

type simListener struct {
	net     *Network
	addr    string
	backlog chan Conn

	once   sync.Once
	doneCh chan struct{}
	closed bool
	mu     sync.Mutex
}

func (l *simListener) done() chan struct{} {
	l.once.Do(func() { l.doneCh = make(chan struct{}) })
	return l.doneCh
}

// Accept returns the next inbound connection.
func (l *simListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done():
		return nil, ErrClosed
	}
}

// Close unregisters the listener.
func (l *simListener) Close() error {
	l.net.mu.Lock()
	if l.net.listeners != nil {
		delete(l.net.listeners, l.addr)
	}
	l.net.mu.Unlock()
	l.shutdown()
	return nil
}

// enqueue hands an inbound connection to Accept. A closed listener refuses
// it, as a TCP listener resets a connection it will never accept: a send
// that races shutdown is checked under the listener's lock afterwards, and
// if shutdown came first, whoever drains last closes the connection.
func (l *simListener) enqueue(c Conn) error {
	select {
	case l.backlog <- c:
	case <-l.done():
		return ErrClosed
	}
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		l.drain()
		return ErrClosed
	}
	return nil
}

// shutdown marks the listener closed, releases blocked Accepts and closes
// the connections still in the backlog, whose dialers would otherwise wait
// forever for an answer.
func (l *simListener) shutdown() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.done())
	}
	l.mu.Unlock()
	l.drain()
}

// drain closes every connection waiting in the backlog.
func (l *simListener) drain() {
	for {
		select {
		case c := <-l.backlog:
			c.Close()
		default:
			return
		}
	}
}

// Addr returns the listen address.
func (l *simListener) Addr() string { return l.addr }

// timedMsg is a message annotated with its earliest delivery time.
type timedMsg struct {
	m  *wire.Msg
	at time.Time
}

// pipeEnd is one half of a bidirectional simulated pipe. Messages become
// visible to the peer only after the link delay elapses, modeling
// propagation + serialization latency while preserving FIFO order.
type pipeEnd struct {
	link     LinkConfig
	out      chan timedMsg // messages we send
	in       chan timedMsg // messages we receive
	closed   chan struct{}
	peer     *pipeEnd
	once     sync.Once
	fault    *faultState // shared per-address fault filter (nil = none)
	toServer bool        // true on the client end: our sends travel client→server
	arrived  time.Time   // delivery time of the message Recv last returned
}

func newPipePair(link LinkConfig) (client, server *pipeEnd) {
	ab := make(chan timedMsg, 1024)
	ba := make(chan timedMsg, 1024)
	a := &pipeEnd{link: link, out: ab, in: ba, closed: make(chan struct{}), toServer: true}
	b := &pipeEnd{link: link, out: ba, in: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// Send enqueues m for delivery after the link delay, subject to any fault
// injected on the address (see Network.SetFault): dropped messages vanish
// with Send still reporting success — exactly what a peer that stopped
// answering looks like — while an injected disconnect closes both pipe ends
// like a connection reset.
func (p *pipeEnd) Send(m *wire.Msg) error {
	verdict, extra := p.fault.filter(p.toServer)
	switch verdict {
	case faultDrop:
		return nil
	case faultDisconnect:
		p.Close()
		p.peer.Close()
		return ErrClosed
	}
	// Check closure before racing it against the (usually ready) buffered
	// channel, so sends on a closed pipe fail deterministically.
	select {
	case <-p.closed:
		return ErrClosed
	case <-p.peer.closed:
		return ErrClosed
	default:
	}
	tm := timedMsg{m: m, at: time.Now().Add(p.link.Delay(m.WireSize()) + extra)}
	select {
	case <-p.closed:
		return ErrClosed
	case <-p.peer.closed:
		return ErrClosed
	case p.out <- tm:
		return nil
	}
}

// SendMore is Send: the pipe buffers nothing, so there is nothing to defer.
func (p *pipeEnd) SendMore(m *wire.Msg) error { return p.Send(m) }

// Flush is a no-op: every Send is already delivered.
func (p *pipeEnd) Flush() error { return nil }

// Recv blocks until the next message has both arrived and matured.
func (p *pipeEnd) Recv() (*wire.Msg, error) {
	select {
	case tm := <-p.in:
		return p.deliver(tm), nil
	case <-p.closed:
		return nil, ErrClosed
	case <-p.peer.closed:
		// Drain anything already in flight before reporting closure.
		select {
		case tm := <-p.in:
			return p.deliver(tm), nil
		default:
			return nil, ErrClosed
		}
	}
}

// deliver waits out tm's link delay and records when it became receivable.
func (p *pipeEnd) deliver(tm timedMsg) *wire.Msg {
	if d := time.Until(tm.at); d > 0 {
		time.Sleep(d)
	}
	p.arrived = tm.at
	return tm.m
}

// Pending reports whether a message is queued for Recv.
func (p *pipeEnd) Pending() bool { return len(p.in) > 0 }

// Arrived returns the delivery time of the message Recv last returned.
func (p *pipeEnd) Arrived() time.Time { return p.arrived }

// Close shuts down this end; the peer's Recv drains then fails.
func (p *pipeEnd) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

var (
	_ Conn     = (*pipeEnd)(nil)
	_ Dialer   = (*Network)(nil)
	_ Listener = (*simListener)(nil)
)
