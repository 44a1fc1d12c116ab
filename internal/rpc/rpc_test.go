package rpc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// startEcho builds a server on a fresh loopback network with an echo op.
func startEcho(t *testing.T) (*netsim.Network, *Server) {
	t.Helper()
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := NewServer()
	s.Handle(wire.Op(0x0F00), func(body []byte) (wire.Status, []byte) {
		out := append([]byte("echo:"), body...)
		return wire.StatusOK, out
	})
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	return n, s
}

func TestCallRoundTrip(t *testing.T) {
	n, _ := startEcho(t)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, body, err := c.Call(wire.Op(0x0F00), []byte("hi"))
	if err != nil || st != wire.StatusOK || string(body) != "echo:hi" {
		t.Errorf("Call = %v %q %v", st, body, err)
	}
	if c.Trips() != 1 {
		t.Errorf("Trips = %d, want 1", c.Trips())
	}
}

func TestUnknownOp(t *testing.T) {
	n, _ := startEcho(t)
	c, _ := Dial(n, "srv")
	defer c.Close()
	st, _, err := c.Call(wire.Op(0x7777), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != wire.StatusInval {
		t.Errorf("unknown op status = %v, want EINVAL", st)
	}
}

func TestPingHandlerDefault(t *testing.T) {
	n, _ := startEcho(t)
	c, _ := Dial(n, "srv")
	defer c.Close()
	st, body, err := c.Call(wire.OpPing, []byte("p"))
	if err != nil || st != wire.StatusOK || string(body) != "p" {
		t.Errorf("ping = %v %q %v", st, body, err)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	n := netsim.NewNetwork(netsim.LinkConfig{RTT: time.Millisecond})
	defer n.Close()
	const callers = 16
	// The handler answers nobody until all callers' requests are inside it,
	// so the calls pass only if all 16 are outstanding on the one connection
	// at once; sequential calls never can. The wait is bounded so that a
	// failure fails instead of hanging.
	var arrived sync.WaitGroup
	arrived.Add(callers)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	s := NewServer()
	s.Handle(wire.Op(1), func(body []byte) (wire.Status, []byte) {
		arrived.Done()
		select {
		case <-all:
			return wire.StatusOK, body
		case <-time.After(5 * time.Second):
			return wire.StatusIO, nil
		}
	})
	s.Blocking(wire.Op(1))
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, _ := Dial(n, "srv")
	defer c.Close()

	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("caller-%d", w))
			st, out, err := c.Call(wire.Op(1), body)
			if err != nil || st != wire.StatusOK || string(out) != string(body) {
				t.Errorf("caller %d: %v %q %v — not multiplexed?", w, st, out, err)
			}
		}(w)
	}
	wg.Wait()
	if c.Trips() != callers {
		t.Errorf("Trips = %d, want %d", c.Trips(), callers)
	}
}

func TestServerCountsServed(t *testing.T) {
	n, s := startEcho(t)
	c, _ := Dial(n, "srv")
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Call(wire.OpPing, nil)
	}
	if got := s.Served.Load(); got != 5 {
		t.Errorf("Served = %d, want 5", got)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	s := NewServer()
	block := make(chan struct{})
	s.Handle(wire.Op(2), func(body []byte) (wire.Status, []byte) {
		<-block
		return wire.StatusOK, nil
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, _ := Dial(n, "srv")
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Call(wire.Op(2), nil)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("pending call succeeded after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("pending call not released by Close")
	}
	close(block)
	s.Shutdown()
}

func TestCallAfterClose(t *testing.T) {
	n, _ := startEcho(t)
	c, _ := Dial(n, "srv")
	c.Close()
	// Poll briefly: calls must start failing within a second of Close.
	deadline := time.Now().Add(time.Second)
	for {
		_, _, err := c.Call(wire.OpPing, nil)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Call kept succeeding after Close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShutdownStopsAccept(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	s := NewServer()
	l, _ := n.Listen("srv")
	served := make(chan struct{})
	go func() {
		s.Serve(l)
		close(served)
	}()
	c, _ := Dial(n, "srv")
	c.Call(wire.OpPing, nil)
	c.Close()
	s.Shutdown()
	select {
	case <-served:
	case <-time.After(time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := n.Dial("srv"); err == nil {
		t.Error("listener still reachable after Shutdown")
	}
}

// TestServeAfterShutdownResetsDialed: a connection dialed before Serve, to
// a server shut down before Serve started, is never accepted; the listener's
// close must end it, so the dialer's call fails instead of hanging.
func TestServeAfterShutdownResetsDialed(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := NewServer()
	s.Shutdown()
	s.Serve(l) // returns at once: the server is shut down
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Call(wire.OpPing, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("call on a never-accepted connection succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call on a never-accepted connection still waiting after 2 s")
	}
}

func TestManySequentialCalls(t *testing.T) {
	n, _ := startEcho(t)
	c, _ := Dial(n, "srv")
	defer c.Close()
	for i := 0; i < 2000; i++ {
		st, _, err := c.Call(wire.OpPing, []byte{byte(i)})
		if err != nil || st != wire.StatusOK {
			t.Fatalf("call %d: %v %v", i, st, err)
		}
	}
	if c.Trips() != 2000 {
		t.Errorf("Trips = %d", c.Trips())
	}
}
