package rpc

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// parkedOp is an op whose handler parks until the test ends, keeping one
// call outstanding on the client's connection.
const parkedOp = wire.Op(0x0F01)

// tcpClient serves a ping-and-park server over loopback TCP and returns a
// client whose socket is wrapped by wrap.
func tcpClient(t *testing.T, wrap func(net.Conn) net.Conn) *Client {
	t.Helper()
	release := make(chan struct{})
	s := NewServer()
	s.Handle(parkedOp, func([]byte) (wire.Status, []byte) {
		<-release
		return wire.StatusOK, nil
	})
	s.Blocking(parkedOp)
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Shutdown)
	t.Cleanup(func() { close(release) }) // before Shutdown, which waits for the handler
	sock, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(netsim.NewTCPConn(wrap(sock)))
	t.Cleanup(func() { c.Close() })
	return c
}

// park issues a parked call on c and returns once the server holds it, so
// that every later call on c finds another outstanding.
func park(t *testing.T, c *Client) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Call(parkedOp, nil)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == 1 {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatal("parked call never registered")
		}
	}
}

// releaseTogether starts n goroutines that each run call(i), lets them all
// block on one channel, and releases them at once — as one burst of
// responses wakes the callers it answers. It returns each call's error, or
// fails the test if a call has not returned within 10 s.
func releaseTogether(t *testing.T, n int, call func(i int) error) []error {
	t.Helper()
	errs := make([]error, n)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			ready.Done()
			<-start
			errs[i] = call(i)
		}(i)
	}
	ready.Wait()
	close(start)
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("a released call neither returned nor failed")
	}
	return errs
}

// TestBusyCallersShareAWrite: 16 callers released together on a connection
// that already has a call outstanding send their requests in a few socket
// writes, not one each, and every caller gets its own reply. One P makes
// the callers run one after another, as callers woken by one burst do.
func TestBusyCallersShareAWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var writes atomic.Int64
	c := tcpClient(t, func(s net.Conn) net.Conn { return countingConn{Conn: s, writes: &writes} })
	park(t, c)
	before := writes.Load()
	const callers = 16
	errs := releaseTogether(t, callers, func(i int) error {
		want := fmt.Sprint(i)
		st, body, err := c.Call(wire.OpPing, []byte(want))
		if err == nil && (st != wire.StatusOK || string(body) != want) {
			err = fmt.Errorf("reply %v %q, want OK %q", st, body, want)
		}
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if n := writes.Load() - before; n > 4 {
		t.Errorf("%d busy callers made %d socket writes, want <= 4", callers, n)
	}
}

// TestLoneCallerOneWrite: a call with none other outstanding makes exactly
// one socket write.
func TestLoneCallerOneWrite(t *testing.T) {
	var writes atomic.Int64
	c := tcpClient(t, func(s net.Conn) net.Conn { return countingConn{Conn: s, writes: &writes} })
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		before := writes.Load()
		_, _, _, err := c.Do(CallSpec{Op: wire.OpPing, Ctx: ctx})
		cancel()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if n := writes.Load() - before; n != 1 {
			t.Fatalf("call %d made %d socket writes, want 1", i, n)
		}
	}
}

// TestYieldedFlushFailure: the socket write of a busy caller's flush fails.
// Every caller whose request it carried gets an error, the outstanding call
// too, and none hangs.
func TestYieldedFlushFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var writes atomic.Int64
	c := tcpClient(t, func(s net.Conn) net.Conn { return countingConn{Conn: s, writes: &writes, failAfter: 1} })
	parked := park(t, c) // the one write that goes through
	errs := releaseTogether(t, 16, func(int) error {
		_, _, err := c.Call(wire.OpPing, nil)
		return err
	})
	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d: no error after its request's write failed", i)
		}
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Error("outstanding call succeeded on a connection whose write failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("outstanding call hung after the connection's write failed")
	}
}
