package rpc

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// TestStartedCallsKeepOrder: calls started in order on one client reach the
// server in that order over TCP, whether or not they carry a send deadline
// and however the flushes between them fall.
func TestStartedCallsKeepOrder(t *testing.T) {
	const orderOp, calls = wire.Op(0x0F02), 300
	var mu sync.Mutex
	var got []uint32
	s := NewServer()
	s.Handle(orderOp, func(body []byte) (wire.Status, []byte) {
		mu.Lock()
		got = append(got, binary.BigEndian.Uint32(body))
		mu.Unlock()
		return wire.StatusOK, nil
	})
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Shutdown)
	c, err := Dial(netsim.TCPDialer{}, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	started := make([]Call, calls)
	for i := range started {
		spec := CallSpec{Op: orderOp, Body: binary.BigEndian.AppendUint32(nil, uint32(i))}
		if i%2 == 0 {
			spec.Timeout = 10 * time.Second
		}
		started[i] = c.Start(spec)
		if i%7 == 0 {
			c.Flush()
		}
	}
	c.Flush()
	for i := range started {
		if st, _, _, err := started[i].Wait(); err != nil || st != wire.StatusOK {
			t.Fatalf("call %d: %v %v", i, st, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("request %d reached the server in position %d", v, i)
		}
	}
}

// TestStartedCallTimedOutReplyDropped: a call that timed out is forgotten,
// so its late reply is dropped on arrival and never answers a later call.
func TestStartedCallTimedOutReplyDropped(t *testing.T) {
	const slowOp = wire.Op(0x0F03)
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	release := map[string]chan struct{}{"first": make(chan struct{}), "second": make(chan struct{})}
	s := NewServer()
	s.Handle(slowOp, func(body []byte) (wire.Status, []byte) {
		<-release[string(body)]
		return wire.StatusOK, body
	})
	s.Blocking(slowOp)
	l, _ := n.Listen("srv")
	go s.Serve(l)
	defer s.Shutdown()
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if st, _, _, err := c.Do(CallSpec{Op: slowOp, Body: []byte("first"), Timeout: 20 * time.Millisecond}); st != wire.StatusDeadline {
		t.Fatalf("first call = %v, %v; want a timeout", st, err)
	}
	second := c.Start(CallSpec{Op: slowOp, Body: []byte("second"), Timeout: 5 * time.Second})
	c.Flush()
	close(release["first"]) // the late reply arrives while the second call waits
	time.Sleep(10 * time.Millisecond)
	close(release["second"])
	st, body, _, err := second.Wait()
	if err != nil || st != wire.StatusOK || string(body) != "second" {
		t.Fatalf("second call = %v %q %v; want its own reply", st, body, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) != 0 {
		t.Fatalf("%d calls still pending", len(c.pending))
	}
}
