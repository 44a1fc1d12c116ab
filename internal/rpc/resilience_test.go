package rpc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// TestDoDeadline: a call whose handler outlives the per-call timeout
// returns ETIMEDOUT within the bound instead of blocking on the response.
func TestDoDeadline(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := NewServer()
	release := make(chan struct{})
	s.Handle(wire.Op(0x0F00), func(body []byte) (wire.Status, []byte) {
		<-release
		return wire.StatusOK, nil
	})
	defer close(release)
	l, _ := n.Listen("srv")
	go s.Serve(l)

	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	t0 := time.Now()
	st, _, _, err := c.Do(CallSpec{Op: wire.Op(0x0F00), Timeout: 30 * time.Millisecond})
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("deadline call took %v", d)
	}
	if st != wire.StatusDeadline {
		t.Errorf("status = %v, want ETIMEDOUT", st)
	}
	if !errors.Is(err, wire.StatusDeadline.Err()) {
		t.Errorf("err = %v, want deadline", err)
	}
}

// TestDoDeadlineMissesDoNotPoisonLaterCalls: after a timed-out call, the
// same client still completes fresh calls (the late response for the dead
// request is discarded, not mismatched).
func TestDoDeadlineMissesDoNotPoisonLaterCalls(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := NewServer()
	var slow atomic.Bool
	s.Handle(wire.Op(0x0F00), func(body []byte) (wire.Status, []byte) {
		if slow.Load() {
			time.Sleep(80 * time.Millisecond)
		}
		return wire.StatusOK, []byte("done")
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slow.Store(true)
	if st, _, _, _ := c.Do(CallSpec{Op: wire.Op(0x0F00), Timeout: 10 * time.Millisecond}); st != wire.StatusDeadline {
		t.Fatalf("first call status = %v, want ETIMEDOUT", st)
	}
	slow.Store(false)
	st, body, _, err := c.Do(CallSpec{Op: wire.Op(0x0F00), Timeout: time.Second})
	if err != nil || st != wire.StatusOK || string(body) != "done" {
		t.Fatalf("call after deadline miss = %v %q %v", st, body, err)
	}
}

// TestHandleMsgSeesEveryDelivery: the server is a plain transport. Two
// deliveries of one request id both reach the handler, each with the id and
// the trace id — at-most-once belongs to the service that owns the state (the
// FMS window, a DMS node's log), not to the rpc layer.
func TestHandleMsgSeesEveryDelivery(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := NewServer()
	var execs atomic.Int64
	s.HandleMsg(wire.Op(0x0F00), func(req, trace uint64, body []byte) (wire.Status, []byte) {
		if req != 0xBEEF || trace != 0x7ACE {
			t.Errorf("handler got request id %#x trace %#x, want 0xbeef 0x7ace", req, trace)
		}
		return wire.StatusOK, []byte{byte(execs.Add(1))}
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := CallSpec{Op: wire.Op(0x0F00), Req: 0xBEEF, Trace: 0x7ACE}
	for want := byte(1); want <= 2; want++ {
		if st, b, _, err := c.Do(spec); err != nil || st != wire.StatusOK || len(b) != 1 || b[0] != want {
			t.Fatalf("delivery %d = %v %v %v, want OK [%d]", want, st, b, err, want)
		}
	}
}
