package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// readGauge wraps a socket and counts the reads blocked in it right now.
type readGauge struct {
	net.Conn
	inRead *atomic.Int64
}

func (g readGauge) Read(p []byte) (int, error) {
	g.inRead.Add(1)
	defer g.inRead.Add(-1)
	return g.Conn.Read(p)
}

// TestReadRoleNoReaderGoroutine: a client starts no reader of its own. Before
// any call and after a lone call has returned, nothing is blocked reading
// its socket; the lone caller read its own reply.
func TestReadRoleNoReaderGoroutine(t *testing.T) {
	var inRead atomic.Int64
	c := tcpClient(t, func(s net.Conn) net.Conn { return readGauge{Conn: s, inRead: &inRead} })
	idle := func(when string) {
		t.Helper()
		time.Sleep(20 * time.Millisecond) // a reader goroutine would be parked in Read by now
		if n := inRead.Load(); n != 0 {
			t.Fatalf("%s: %d reads blocked on an idle connection, want 0", when, n)
		}
	}
	idle("after NewClient")
	for i := 0; i < 10; i++ {
		if st, _, err := c.Call(wire.OpPing, nil); err != nil || st != wire.StatusOK {
			t.Fatalf("ping %d: %v %v", i, st, err)
		}
	}
	idle("after lone calls")
}

// goid returns the calling goroutine's id, from its stack header.
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	var id uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}

// recvRecorder notes which goroutines call Recv.
type recvRecorder struct {
	netsim.Conn
	mu      sync.Mutex
	readers map[uint64]int
}

func (r *recvRecorder) Recv() (*wire.Msg, error) {
	id := goid()
	r.mu.Lock()
	r.readers[id]++
	r.mu.Unlock()
	return r.Conn.Recv()
}

// TestReadRoleMovesBetweenCallers: 16 concurrent callers whose replies come
// back after random server delays all get their own replies, and the read
// role moves between them: only callers read the connection, and more than
// one of them does.
func TestReadRoleMovesBetweenCallers(t *testing.T) {
	const delayOp, callers, calls = wire.Op(0x0F04), 16, 40
	s := NewServer()
	s.Handle(delayOp, func(body []byte) (wire.Status, []byte) {
		time.Sleep(time.Duration(rand.Intn(2000)) * time.Microsecond)
		return wire.StatusOK, body
	})
	s.Blocking(delayOp)
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Shutdown)
	conn, err := netsim.TCPDialer{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recvRecorder{Conn: conn, readers: make(map[uint64]int)}
	c := NewClient(rec)
	defer c.Close()

	var mu sync.Mutex
	callerIDs := make(map[uint64]bool)
	errs := releaseTogether(t, callers, func(i int) error {
		mu.Lock()
		callerIDs[goid()] = true
		mu.Unlock()
		for j := 0; j < calls; j++ {
			want := fmt.Sprintf("%d/%d", i, j)
			st, body, err := c.Call(delayOp, []byte(want))
			if err != nil {
				return err
			}
			if st != wire.StatusOK || string(body) != want {
				return fmt.Errorf("reply %v %q, want OK %q", st, body, want)
			}
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for id, n := range rec.readers {
		if !callerIDs[id] {
			t.Errorf("goroutine %d, not a caller, made %d reads", id, n)
		}
	}
	if len(rec.readers) < 2 {
		t.Errorf("%d goroutines read the connection, want the role to move between callers", len(rec.readers))
	}
}

// waiting counts c's calls whose waiters wait in state w.
func waiting(c *Client, w waitState) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, mb := range c.pending {
		if mb.wait == w {
			n++
		}
	}
	return n
}

// until polls cond for up to 5 s.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// closeAll closes every release channel still open: a test's cleanup, run
// before the server's Shutdown, which waits for the parked handlers.
func closeAll(release map[string]chan struct{}) {
	for _, ch := range release {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
}

// TestReadRoleBoundedWaiters: waiters bounded by a timeout or a context
// never read, so when the caller holding the read role leaves with only
// bounded waiters behind it, the role passes to a reader goroutine. A
// bounded waiter still gets a reply that arrives in time; one that times
// out, and one whose context is cancelled, leave the role with that reader;
// and a later unbounded caller on the same client completes.
func TestReadRoleBoundedWaiters(t *testing.T) {
	const slowOp = wire.Op(0x0F05)
	release := map[string]chan struct{}{}
	for _, k := range []string{"lead", "inTime", "late", "cancelled"} {
		release[k] = make(chan struct{})
	}
	s := NewServer()
	s.Handle(slowOp, func(body []byte) (wire.Status, []byte) {
		<-release[string(body)]
		return wire.StatusOK, body
	})
	s.Blocking(slowOp)
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Shutdown)
	t.Cleanup(func() { closeAll(release) })
	c, err := Dial(netsim.TCPDialer{}, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		st   wire.Status
		body string
		err  error
	}
	do := func(spec CallSpec) <-chan result {
		out := make(chan result, 1)
		go func() {
			st, body, _, err := c.Do(spec)
			out <- result{st, string(body), err}
		}()
		return out
	}
	lead := do(CallSpec{Op: slowOp, Body: []byte("lead")})
	until(t, "the first caller reads", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.reading && len(c.pending) == 1
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inTime := do(CallSpec{Op: slowOp, Body: []byte("inTime"), Timeout: 10 * time.Second})
	late := do(CallSpec{Op: slowOp, Body: []byte("late"), Timeout: time.Second})
	cancelled := do(CallSpec{Op: slowOp, Body: []byte("cancelled"), Ctx: ctx})
	until(t, "three bounded waiters park", func() bool { return waiting(c, bounded) == 3 })

	close(release["lead"]) // the reader leaves: only bounded waiters are left
	if r := <-lead; r.err != nil || r.body != "lead" {
		t.Fatalf("first call = %+v", r)
	}
	cancel()
	if r := <-cancelled; r.err == nil {
		t.Fatalf("cancelled call = %+v, want its context's error", r)
	}
	close(release["inTime"])
	select {
	case r := <-inTime:
		if r.err != nil || r.body != "inTime" {
			t.Fatalf("bounded call answered in time = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a bounded waiter's reply went unread after the reader left")
	}
	if r := <-late; r.st != wire.StatusDeadline {
		t.Fatalf("late call = %+v, want a timeout", r)
	}
	for i := 0; i < 3; i++ {
		select {
		case r := <-do(CallSpec{Op: wire.OpPing, Body: []byte("after")}):
			if r.err != nil || r.body != "after" {
				t.Fatalf("call %d after the bounded waiters left = %+v", i, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d after the bounded waiters left: the read role was lost", i)
		}
	}
}

// TestReadRolePassesToParkedCaller: the caller holding the read role gets
// its reply before a parked caller gets its own; it passes the role on when
// it leaves, and the parked caller reads its reply itself.
func TestReadRolePassesToParkedCaller(t *testing.T) {
	const slowOp = wire.Op(0x0F06)
	release := map[string]chan struct{}{"a": make(chan struct{}), "b": make(chan struct{})}
	s := NewServer()
	s.Handle(slowOp, func(body []byte) (wire.Status, []byte) {
		<-release[string(body)]
		return wire.StatusOK, body
	})
	s.Blocking(slowOp)
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Shutdown)
	t.Cleanup(func() { closeAll(release) })
	c, err := Dial(netsim.TCPDialer{}, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := func(body string) <-chan error {
		out := make(chan error, 1)
		go func() {
			st, got, err := c.Call(slowOp, []byte(body))
			if err == nil && (st != wire.StatusOK || string(got) != body) {
				err = fmt.Errorf("reply %v %q, want OK %q", st, got, body)
			}
			out <- err
		}()
		return out
	}
	a := call("a")
	until(t, "the first caller reads", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.reading && len(c.pending) == 1
	})
	b := call("b")
	until(t, "the second caller parks", func() bool { return waiting(c, parked) == 1 })
	close(release["a"])
	if err := <-a; err != nil {
		t.Fatal(err)
	}
	until(t, "the parked caller holds the role", func() bool {
		if waiting(c, parked) != 0 {
			return false
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.reading
	})
	close(release["b"])
	select {
	case err := <-b:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked caller's reply went unread")
	}
}

// TestReadRoleConnFailureFailsEveryWaiter: the connection breaks in the
// middle of a frame. The caller holding the read role, a parked caller, a
// bounded waiter and a call started but not yet waited on all fail at once.
func TestReadRoleConnFailureFailsEveryWaiter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	breakNow := make(chan struct{})
	go func() {
		sock, err := ln.Accept()
		if err != nil {
			return
		}
		defer sock.Close()
		<-breakNow
		// A frame header promising 100 bytes, then 10 of them, then EOF.
		half := binary.BigEndian.AppendUint32(nil, 100)
		sock.Write(append(half, make([]byte, 10)...))
	}()
	c, err := Dial(netsim.TCPDialer{}, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	outcome := func(wait func() error) <-chan error {
		out := make(chan error, 1)
		go func() { out <- wait() }()
		return out
	}
	call := func(spec CallSpec) func() error {
		return func() error { _, _, _, err := c.Do(spec); return err }
	}
	holder := outcome(call(CallSpec{Op: wire.OpPing}))
	until(t, "a caller holds the read role", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.reading && len(c.pending) == 1
	})
	parkedCall := outcome(call(CallSpec{Op: wire.OpPing}))
	until(t, "a caller parks", func() bool { return waiting(c, parked) == 1 })
	boundedCall := outcome(call(CallSpec{Op: wire.OpPing, Timeout: 30 * time.Second}))
	until(t, "a bounded waiter parks", func() bool { return waiting(c, bounded) == 1 })
	started := c.Start(CallSpec{Op: wire.OpPing})
	c.Flush()

	close(breakNow)
	for name, ch := range map[string]<-chan error{"role holder": holder, "parked": parkedCall, "bounded": boundedCall} {
		select {
		case err := <-ch:
			if err == nil {
				t.Errorf("%s call succeeded on a broken connection", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s call not failed by the broken connection", name)
		}
	}
	if _, _, _, err := started.Wait(); err == nil {
		t.Error("started call succeeded on a broken connection")
	}
}
