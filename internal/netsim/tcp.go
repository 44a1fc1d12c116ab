package netsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/wire"
)

// DeadlineSender is the optional Conn extension for transports that can
// bound how long one send may block (real sockets whose kernel buffers are
// full because the peer hung). The RPC client uses it when a per-call
// timeout is configured; transports without it (the in-process pipes, whose
// sends never block indefinitely) are simply sent to without a bound.
type DeadlineSender interface {
	// SendDeadline is Send with an upper bound on blocking time. A zero
	// timeout means no bound.
	SendDeadline(m *wire.Msg, timeout time.Duration) error
}

// tcpConn adapts a net.Conn to the message Conn interface using the wire
// framing. Senders serialize on wm; one that finds another queued behind it
// leaves its frame in bw for that sender's flush, so callers that arrive
// during a write go out together in the next one.
type tcpConn struct {
	c  net.Conn
	rd stampedReader
	br *bufio.Reader

	queued atomic.Int32 // senders waiting for wm
	wm     sync.Mutex
	bw     *bufio.Writer
	by     time.Time // guarded by wm: the tightest write deadline among unflushed frames
}

// stampedReader notes when each socket read returns: the moment the bytes
// it brought in became receivable.
type stampedReader struct {
	c  net.Conn
	at time.Time
}

func (r *stampedReader) Read(p []byte) (int, error) {
	n, err := r.c.Read(p)
	r.at = time.Now()
	return n, err
}

// NewTCPConn wraps an established net.Conn in the message framing.
func NewTCPConn(c net.Conn) Conn {
	t := &tcpConn{c: c, rd: stampedReader{c: c}, bw: bufio.NewWriterSize(c, 64<<10)}
	t.br = bufio.NewReaderSize(&t.rd, 64<<10)
	return t
}

// Send writes one framed message and flushes it, unless another sender is
// queued behind it: that sender's flush carries this frame too.
func (t *tcpConn) Send(m *wire.Msg) error { return t.send(m, 0, false) }

// SendMore writes one framed message without flushing it.
func (t *tcpConn) SendMore(m *wire.Msg) error { return t.send(m, 0, true) }

// SendDeadline is Send with the socket write bounded by timeout (zero =
// unbounded). The bound is kept until the frame is flushed, whichever
// sender's flush carries it, and a flush is bounded by the tightest bound
// among the frames it carries, so a deadline cannot be loosened by a
// neighbour with a longer one.
func (t *tcpConn) SendDeadline(m *wire.Msg, timeout time.Duration) error {
	return t.send(m, timeout, false)
}

func (t *tcpConn) send(m *wire.Msg, timeout time.Duration, more bool) error {
	t.queued.Add(1)
	t.wm.Lock()
	t.queued.Add(-1)
	defer t.wm.Unlock()
	if timeout > 0 {
		if by := time.Now().Add(timeout); t.by.IsZero() || by.Before(t.by) {
			t.by = by
			t.c.SetWriteDeadline(by)
		}
	}
	err := wire.WriteMsg(t.bw, m)
	if err != nil && !errors.Is(err, wire.ErrFrameTooLarge) {
		return t.broken(err)
	}
	// Even a refused frame must not strand the ones before it.
	if more || t.queued.Load() > 0 {
		return err
	}
	if ferr := t.flushLocked(); ferr != nil {
		return ferr
	}
	return err
}

// Flush puts every written frame on the wire.
func (t *tcpConn) Flush() error {
	t.wm.Lock()
	defer t.wm.Unlock()
	return t.flushLocked()
}

func (t *tcpConn) flushLocked() error {
	if t.bw.Buffered() == 0 {
		return nil
	}
	if err := t.bw.Flush(); err != nil {
		return t.broken(err)
	}
	if !t.by.IsZero() {
		t.by = time.Time{}
		t.c.SetWriteDeadline(time.Time{})
	}
	return nil
}

// broken handles a failed socket write. Frames of senders that already
// returned may have gone down with it, and the stream may end mid-frame, so
// the connection is closed: both ends' Recv fail, which is how those
// senders' callers learn of it. Caller holds wm.
func (t *tcpConn) broken(err error) error {
	t.c.Close()
	return err
}

// Recv reads one framed message.
func (t *tcpConn) Recv() (*wire.Msg, error) {
	return wire.ReadMsg(t.br)
}

// Pending reports whether a whole frame is already buffered, so Recv will
// not read the socket. A partial frame does not count.
func (t *tcpConn) Pending() bool {
	if t.br.Buffered() < 4 {
		return false
	}
	hdr, _ := t.br.Peek(4) // buffered: Peek does not read
	return t.br.Buffered() >= 4+int(binary.BigEndian.Uint32(hdr))
}

// Arrived returns when the socket read that completed the last message Recv
// returned came back.
func (t *tcpConn) Arrived() time.Time { return t.rd.at }

// Close closes the underlying socket.
func (t *tcpConn) Close() error { return t.c.Close() }

// TCPListener adapts a net.Listener to the message Listener interface.
type TCPListener struct{ L net.Listener }

// ListenTCP starts a TCP listener on addr ("host:port", ":0" for ephemeral).
func ListenTCP(addr string) (*TCPListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPListener{L: l}, nil
}

// Accept waits for an inbound connection.
func (l *TCPListener) Accept() (Conn, error) {
	c, err := l.L.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCPConn(c), nil
}

// Close stops the listener.
func (l *TCPListener) Close() error { return l.L.Close() }

// Addr returns the bound address.
func (l *TCPListener) Addr() string { return l.L.Addr().String() }

// TCPDialer dials real TCP endpoints.
type TCPDialer struct{}

// Dial opens a framed connection to addr.
func (TCPDialer) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTCPConn(c), nil
}

var (
	_ Listener = (*TCPListener)(nil)
	_ Dialer   = TCPDialer{}
)
