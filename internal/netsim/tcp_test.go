package netsim

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/wire"
)

// tcpPair returns the two ends of a loopback TCP connection, the dialing
// end's socket passed through wrap before it gets the framing.
func tcpPair(t *testing.T, wrap func(net.Conn) net.Conn) (client, server Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	client, server = NewTCPConn(wrap(c)), NewTCPConn(sc)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// writeCounter counts socket writes and, once failAfter (if positive)
// writes have gone through, fails every later one without writing.
type writeCounter struct {
	net.Conn
	writes    atomic.Int64
	failAfter int64
}

var errInjected = errors.New("injected write failure")

func (w *writeCounter) Write(p []byte) (int, error) {
	if n := w.writes.Add(1); w.failAfter > 0 && n > w.failAfter {
		return 0, errInjected
	}
	return w.Conn.Write(p)
}

// TestTCPSendCoalesce: N goroutines sending M messages each on one
// connection deliver every message, each goroutine's in its own order,
// whichever sender's flush carried it.
func TestTCPSendCoalesce(t *testing.T) {
	const senders, each = 8, 200
	wc := &writeCounter{}
	client, server := tcpPair(t, func(c net.Conn) net.Conn { wc.Conn = c; return wc })
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := client.Send(&wire.Msg{ID: uint64(g)<<32 | uint64(i), Op: wire.OpPing}); err != nil {
					t.Errorf("sender %d message %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	next := make([]uint64, senders)
	for n := 0; n < senders*each; n++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("after %d messages: %v", n, err)
		}
		g, i := m.ID>>32, m.ID&(1<<32-1)
		if i != next[g] {
			t.Fatalf("sender %d: got message %d, want %d", g, i, next[g])
		}
		next[g]++
	}
	wg.Wait()
	t.Logf("%d messages in %d socket writes", senders*each, wc.writes.Load())
}

// TestTCPSendCoalesceFailure: a socket write fails in the middle of a burst
// from N senders. Every message is then delivered or its caller learns of
// the failure — from its Send, or, when another sender's flush carried it,
// from the connection, which the failure closes — and no caller hangs.
func TestTCPSendCoalesceFailure(t *testing.T) {
	const senders, each = 8, 50
	wc := &writeCounter{failAfter: 20}
	client, server := tcpPair(t, func(c net.Conn) net.Conn { wc.Conn = c; return wc })
	go func() { // echo
		for {
			m, err := server.Recv()
			if err != nil {
				return
			}
			m.IsResp = true
			if server.Send(m) != nil {
				return
			}
		}
	}()
	var mu sync.Mutex
	waiting := make(map[uint64]chan struct{})
	dead := make(chan struct{})
	go func() { // the caller side's reader: echoes to their callers
		defer close(dead)
		for {
			m, err := client.Recv()
			if err != nil {
				return
			}
			mu.Lock()
			ch := waiting[m.ID]
			mu.Unlock()
			close(ch)
		}
	}()
	var delivered, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(g)<<32 | uint64(i)
				ch := make(chan struct{})
				mu.Lock()
				waiting[id] = ch
				mu.Unlock()
				if err := client.Send(&wire.Msg{ID: id, Op: wire.OpPing}); err != nil {
					failed.Add(1)
					continue
				}
				select {
				case <-ch:
					delivered.Add(1)
				case <-dead:
					failed.Add(1)
				case <-time.After(10 * time.Second):
					t.Errorf("sender %d message %d: neither delivered nor failed", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := delivered.Load() + failed.Load(); got != senders*each {
		t.Errorf("%d of %d messages accounted for", got, senders*each)
	}
	if failed.Load() == 0 {
		t.Error("no caller saw the injected failure")
	}
	select {
	case <-dead:
	case <-time.After(10 * time.Second):
		t.Fatal("failed write left the connection open")
	}
	t.Logf("%d delivered, %d failed", delivered.Load(), failed.Load())
}

// parkedWriter parks its first write until released and records the write
// deadline each write ran under.
type parkedWriter struct {
	net.Conn
	parked  chan struct{}
	release chan struct{}

	mu        sync.Mutex
	deadline  time.Time
	deadlines []time.Time // per write after the parked one
	first     bool
}

func (w *parkedWriter) SetWriteDeadline(d time.Time) error {
	w.mu.Lock()
	w.deadline = d
	w.mu.Unlock()
	return w.Conn.SetWriteDeadline(d)
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	first := !w.first
	w.first = true
	if !first {
		w.deadlines = append(w.deadlines, w.deadline)
	}
	w.mu.Unlock()
	if first {
		close(w.parked)
		<-w.release
	}
	return w.Conn.Write(p)
}

// TestTCPCoalescedFlushKeepsTightestDeadline: a frame sent with a deadline
// and carried by another sender's flush is still written under that
// deadline.
func TestTCPCoalescedFlushKeepsTightestDeadline(t *testing.T) {
	pw := &parkedWriter{parked: make(chan struct{}), release: make(chan struct{})}
	client, server := tcpPair(t, func(c net.Conn) net.Conn { pw.Conn = c; return pw })
	tc := client.(*tcpConn)
	go func() { // drain
		for {
			if _, err := server.Recv(); err != nil {
				return
			}
		}
	}()
	errs := make(chan error, 3)
	go func() { errs <- client.Send(&wire.Msg{ID: 1, Op: wire.OpPing}) }() // its flush parks
	<-pw.parked
	sent := time.Now()
	go func() { errs <- tc.SendDeadline(&wire.Msg{ID: 2, Op: wire.OpPing}, time.Minute) }()
	go func() { errs <- client.Send(&wire.Msg{ID: 3, Op: wire.OpPing}) }()
	for buffered := 0; buffered < 2*(&wire.Msg{Op: wire.OpPing}).WireSize(); time.Sleep(time.Millisecond) {
		tc.mu.Lock()
		buffered = len(tc.buf)
		tc.mu.Unlock()
	}
	close(pw.release)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	pw.mu.Lock()
	defer pw.mu.Unlock()
	// Frames 2 and 3 go out in one flush, whichever of the two made it.
	if len(pw.deadlines) != 1 {
		t.Fatalf("%d writes after the parked one, want 1", len(pw.deadlines))
	}
	if d := pw.deadlines[0]; d.IsZero() || d.After(sent.Add(time.Minute+time.Second)) {
		t.Errorf("coalesced flush ran under deadline %v, want the 1m bound set at %v", d, sent)
	}
	if !pw.deadline.IsZero() {
		t.Errorf("deadline %v left set after the flush", pw.deadline)
	}
}

// TestTCPLateFrameRidesFlusher: a Send that arrives while another sender's
// write is parked returns at once, and its frame goes out in that flusher's
// next pass, before the flusher returns.
func TestTCPLateFrameRidesFlusher(t *testing.T) {
	pw := &parkedWriter{parked: make(chan struct{}), release: make(chan struct{})}
	client, server := tcpPair(t, func(c net.Conn) net.Conn { pw.Conn = c; return pw })
	first := make(chan error, 1)
	go func() { first <- client.Send(&wire.Msg{ID: 1, Op: wire.OpPing}) }()
	<-pw.parked
	late := make(chan error, 1)
	go func() { late <- client.Send(&wire.Msg{ID: 2, Op: wire.OpPing}) }()
	select {
	case err := <-late:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(pw.release)
		t.Fatal("a Send waited on another sender's write")
	}
	close(pw.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	pw.mu.Lock()
	passes := len(pw.deadlines)
	pw.mu.Unlock()
	if passes != 1 {
		t.Errorf("flusher returned after %d writes beyond the parked one, want 1 carrying the late frame", passes)
	}
	for id := uint64(1); id <= 2; id++ {
		if m, err := server.Recv(); err != nil || m.ID != id {
			t.Fatalf("received %+v, %v; want message %d", m, err, id)
		}
	}
}

// TestTCPSendBufferBounded: a 1 MiB frame does not leave a 1 MiB send
// buffer behind it.
func TestTCPSendBufferBounded(t *testing.T) {
	client, server := tcpPair(t, func(c net.Conn) net.Conn { return c })
	tc := client.(*tcpConn)
	got := make(chan error, 1)
	go func() {
		m, err := server.Recv()
		if err == nil && len(m.Body) != 1<<20 {
			err = errors.New("body truncated")
		}
		got <- err
	}()
	if err := client.Send(&wire.Msg{ID: 1, Op: wire.OpPing, Body: make([]byte, 1<<20)}); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	tc.mu.Lock()
	retained := cap(tc.buf) + cap(tc.spare)
	tc.mu.Unlock()
	if retained > maxRetained {
		t.Errorf("%d bytes of send buffer retained after a 1 MiB frame, want <= %d", retained, maxRetained)
	}
}
