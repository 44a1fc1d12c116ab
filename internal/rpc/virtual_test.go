package rpc

import (
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// TestVirtualTimeAccumulation checks Call's modeled-time arithmetic:
// per-call virtual time = request delay + response delay + ServiceNS.
func TestVirtualTimeAccumulation(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	const svc = 50 * time.Microsecond
	// A modeled service time instead of wall-clock measurement, so the
	// expectation is exact.
	s := New(Config{Service: fixedService(svc)})
	s.Handle(wire.Op(1), func(body []byte) (wire.Status, []byte) {
		return wire.StatusOK, nil
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)

	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	link := netsim.LinkConfig{RTT: 200 * time.Microsecond}
	c.SetLink(link)

	const calls = 10
	for i := 0; i < calls; i++ {
		if _, _, err := c.Call(wire.Op(1), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := c.VirtualTime()
	want := calls * (link.RTT + svc) // zero-size adjustments are in Delay()
	// Allow for the small per-message framing bytes (no bandwidth term, so
	// exactly RTT + svc per call).
	if got != want {
		t.Errorf("VirtualTime = %v, want %v", got, want)
	}
	if s.Busy() != calls*svc {
		t.Errorf("server Busy = %v, want %v", s.Busy(), calls*svc)
	}
}

// TestVirtualTimeIncludesMeasuredService: without a ServiceFunc, the
// measured handler time flows into ServiceNS.
func TestVirtualTimeIncludesMeasuredService(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	s := NewServer()
	s.Handle(wire.Op(1), func(body []byte) (wire.Status, []byte) {
		time.Sleep(2 * time.Millisecond)
		return wire.StatusOK, nil
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, _ := Dial(n, "srv")
	defer c.Close()
	c.SetLink(netsim.Loopback)
	c.Call(wire.Op(1), nil)
	if c.VirtualTime() < 2*time.Millisecond {
		t.Errorf("VirtualTime = %v, want >= 2ms of measured service", c.VirtualTime())
	}
}

// TestServiceFuncSerializes checks that a cost-model ServiceFunc observes
// the handler's effects (run() really runs inside it).
func TestServiceFuncRuns(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	s := New(Config{Service: fixedService(7 * time.Microsecond)})
	ran := false
	s.Handle(wire.Op(1), func(body []byte) (wire.Status, []byte) {
		ran = true
		return wire.StatusOK, []byte("out")
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, _ := Dial(n, "srv")
	defer c.Close()
	c.SetLink(netsim.Loopback)
	st, body, err := c.Call(wire.Op(1), nil)
	if err != nil || st != wire.StatusOK || string(body) != "out" {
		t.Fatalf("call = %v %q %v", st, body, err)
	}
	if !ran {
		t.Error("handler did not run inside ServiceFunc")
	}
	if c.VirtualTime() != 7*time.Microsecond {
		t.Errorf("VirtualTime = %v, want 7us", c.VirtualTime())
	}
}

// TestBandwidthTermInVirtualTime checks the size-dependent link cost.
func TestBandwidthTermInVirtualTime(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	s := New(Config{Service: fixedService(0)})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, _ := Dial(n, "srv")
	defer c.Close()
	c.SetLink(netsim.LinkConfig{Bandwidth: 1e6}) // 1 MB/s
	body := make([]byte, 100_000)
	c.Call(wire.OpPing, body) // ping echoes the body: ~100KB each way
	if got := c.VirtualTime(); got < 150*time.Millisecond {
		t.Errorf("VirtualTime = %v, want >= ~200ms for 200KB at 1MB/s", got)
	}
}
