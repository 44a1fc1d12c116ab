package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// frames encodes msgs back to back, as one socket write would carry them.
func frames(t *testing.T, msgs ...*wire.Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := wire.WriteMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// countingListener counts the socket writes of every connection it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

// countingConn counts its socket writes and, once failAfter (if positive)
// writes have gone through, fails every later one without writing.
type countingConn struct {
	net.Conn
	writes    *atomic.Int64
	failAfter int64
}

var errWriteInjected = errors.New("injected write failure")

func (c countingConn) Write(p []byte) (int, error) {
	if n := c.writes.Add(1); c.failAfter > 0 && n > c.failAfter {
		return 0, errWriteInjected
	}
	return c.Conn.Write(p)
}

// serveTCP runs s on a loopback TCP listener whose connections count their
// socket writes into writes, and returns a raw socket dialed to it.
func serveTCP(t *testing.T, s *Server, writes *atomic.Int64) (net.Conn, *bufio.Reader) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(&netsim.TCPListener{L: countingListener{l, writes}})
	t.Cleanup(s.Shutdown)
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c, bufio.NewReader(c)
}

// TestBurstOneWrite: 16 pings arriving in one read are answered in order
// with one flush, not one socket write per response.
func TestBurstOneWrite(t *testing.T) {
	var writes atomic.Int64
	c, br := serveTCP(t, NewServer(), &writes)
	const burst = 16
	var msgs []*wire.Msg
	for i := 1; i <= burst; i++ {
		msgs = append(msgs, &wire.Msg{ID: uint64(i), Op: wire.OpPing, Body: []byte{byte(i)}})
	}
	if _, err := c.Write(frames(t, msgs...)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= burst; i++ {
		m, err := wire.ReadMsg(br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !m.IsResp || m.ID != uint64(i) || !bytes.Equal(m.Body, []byte{byte(i)}) {
			t.Fatalf("response %d = %+v, want the echo of ping %d", i, m, i)
		}
	}
	// Two, not one: the kernel may split the burst across two reads.
	if n := writes.Load(); n > 2 {
		t.Errorf("%d pings answered in %d socket writes, want <= 2", burst, n)
	}
}

// TestReplyNotStrandedByPartialFrame: a reply must not wait in the send
// buffer for a request whose frame has only partly arrived — the peer may
// not send the rest until it has the reply.
func TestReplyNotStrandedByPartialFrame(t *testing.T) {
	var writes atomic.Int64
	c, br := serveTCP(t, NewServer(), &writes)
	b := frames(t,
		&wire.Msg{ID: 1, Op: wire.OpPing, Body: []byte("one")},
		&wire.Msg{ID: 2, Op: wire.OpPing, Body: []byte("two")})
	first := len(b) / 2
	first += (len(b) - first) / 2 // all of frame 1, half of frame 2
	if _, err := c.Write(b[:first]); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadMsg(br)
	if err != nil || m.ID != 1 {
		t.Fatalf("first reply = %+v, %v: stranded behind the partial frame", m, err)
	}
	if _, err := c.Write(b[first:]); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadMsg(br); err != nil || m.ID != 2 || string(m.Body) != "two" {
		t.Fatalf("second reply = %+v, %v", m, err)
	}
}

// TestBlockingOpDoesNotStallConn: a request for an op registered as
// blocking runs off the connection's reader, so an inline request sent
// behind it on the same connection is answered while it stays parked.
func TestBlockingOpDoesNotStallConn(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	const parkedOp = wire.Op(0x0F00)
	entered, release := make(chan struct{}), make(chan struct{})
	s := NewServer()
	s.Handle(parkedOp, func([]byte) (wire.Status, []byte) {
		close(entered)
		<-release
		return wire.StatusOK, []byte("parked")
	})
	s.Blocking(parkedOp)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Shutdown)
	var released sync.Once
	unpark := func() { released.Do(func() { close(release) }) }
	t.Cleanup(unpark) // before Shutdown, which waits for the handler
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	done := make(chan string, 1)
	go func() {
		_, body, _ := c.Call(parkedOp, nil)
		done <- string(body)
	}()
	<-entered
	st, body, _, err := c.Do(CallSpec{Op: wire.OpPing, Body: []byte("p"), Timeout: 2 * time.Second})
	if err != nil || st != wire.StatusOK || string(body) != "p" {
		t.Fatalf("ping behind a parked blocking op = %v %q %v", st, body, err)
	}
	select {
	case b := <-done:
		t.Fatalf("parked op answered (%q) before its release", b)
	default:
	}
	unpark()
	if b := <-done; b != "parked" {
		t.Errorf("parked op = %q after release", b)
	}
}

// TestBlockingNeedsHandler: Blocking marks registered handlers; naming an
// op with none is a wiring bug and panics.
func TestBlockingNeedsHandler(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Blocking of an unregistered op did not panic")
		}
	}()
	NewServer().Blocking(wire.Op(0x7777))
}
