package netsim

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
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
	// SendMoreDeadline is SendMore with the same bound on the flush that
	// later writes m.
	SendMoreDeadline(m *wire.Msg, timeout time.Duration) error
}

// tcpConn adapts a net.Conn to the message Conn interface using the wire
// framing. Its writer is flat-combining: a sender appends its frame to buf
// under mu, a short lock never held across a write. The sender that then
// finds no write in progress becomes the flusher: it takes buf, leaves the
// spare buffer in its place, writes without mu, and repeats until buf stays
// empty. A sender that arrives during a write appends and returns; the
// flusher's next pass carries its frame. So an append never waits on
// write(2), and however the senders' timing falls, the frames appended
// during one write cost one more.
type tcpConn struct {
	c  net.Conn
	rd stampedReader
	br *bufio.Reader

	mu      sync.Mutex
	buf     []byte    // frames appended since the flusher last took buf
	spare   []byte    // the flusher's written buffer, emptied, for the next swap
	by      time.Time // the tightest write deadline among the frames in buf
	writing bool      // a flusher owns the socket's write side

	wdl time.Time // the socket's write deadline, set and cleared by the flusher
}

// maxRetained is the largest send buffer kept after its write: a wide
// readdir page or a migration batch must not pin its buffer for the life of
// the connection.
const maxRetained = 64 << 10

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
	t := &tcpConn{c: c, rd: stampedReader{c: c}}
	t.br = bufio.NewReaderSize(&t.rd, 64<<10)
	return t
}

// Send appends one framed message and flushes it, unless a write is in
// progress: that flusher's next pass carries it.
func (t *tcpConn) Send(m *wire.Msg) error { return t.send(m, 0, false) }

// SendMore appends one framed message without flushing it.
func (t *tcpConn) SendMore(m *wire.Msg) error { return t.send(m, 0, true) }

// SendDeadline is Send with the socket write bounded by timeout (zero =
// unbounded). The bound stays with the frame until a flush carries it,
// whichever sender's flush that is, and a flush runs under the tightest
// bound among the frames it carries, so a neighbour with a longer one cannot
// loosen it.
func (t *tcpConn) SendDeadline(m *wire.Msg, timeout time.Duration) error {
	return t.send(m, timeout, false)
}

// SendMoreDeadline is SendDeadline without the flush.
func (t *tcpConn) SendMoreDeadline(m *wire.Msg, timeout time.Duration) error {
	return t.send(m, timeout, true)
}

func (t *tcpConn) send(m *wire.Msg, timeout time.Duration, more bool) error {
	t.mu.Lock()
	b, err := wire.AppendMsg(t.buf, m) // refuses only ErrFrameTooLarge, appending nothing
	t.buf = b
	if err == nil && timeout > 0 {
		if by := time.Now().Add(timeout); t.by.IsZero() || by.Before(t.by) {
			t.by = by
		}
	}
	// Even a refused frame must not strand the ones before it.
	if more || t.writing {
		t.mu.Unlock()
		return err
	}
	if ferr := t.flushLocked(); ferr != nil {
		return ferr
	}
	return err
}

// Flush puts every appended frame on the wire, or leaves them to the write
// in progress, whose flusher writes until nothing is left.
func (t *tcpConn) Flush() error {
	t.mu.Lock()
	if t.writing {
		t.mu.Unlock()
		return nil
	}
	return t.flushLocked()
}

// flushLocked makes the caller the flusher: it writes buf, swapping in the
// spare so that senders keep appending during the write, until buf is empty.
// Caller holds mu and no write is in progress; mu is released on return.
func (t *tcpConn) flushLocked() error {
	t.writing = true
	for len(t.buf) > 0 {
		b, by := t.buf, t.by
		t.buf, t.spare, t.by = t.spare[:0], nil, time.Time{}
		t.mu.Unlock()
		if !by.Equal(t.wdl) {
			t.c.SetWriteDeadline(by)
			t.wdl = by
		}
		_, err := t.c.Write(b)
		t.mu.Lock()
		if err != nil {
			return t.broken(err)
		}
		if cap(b) <= maxRetained {
			t.spare = b[:0]
		}
	}
	if !t.wdl.IsZero() {
		t.c.SetWriteDeadline(time.Time{})
		t.wdl = time.Time{}
	}
	t.writing = false
	t.mu.Unlock()
	return nil
}

// broken handles a failed socket write. Frames of senders that already
// returned went down with it, and the stream may end mid-frame, so the
// connection is closed: both ends' Recv fail, which is how those senders'
// callers learn of it, and the frames appended during the failed write are
// dropped. Caller holds mu, which is released on return.
func (t *tcpConn) broken(err error) error {
	t.buf, t.spare, t.by, t.writing = nil, nil, time.Time{}, false
	t.mu.Unlock()
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
