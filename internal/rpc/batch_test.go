package rpc

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/wire"
)

// startBatchServer builds a server from cfg with an echo op and an op that
// fails with ENOENT.
func startBatchServer(t *testing.T, cfg Config) (*netsim.Network, *Server) {
	t.Helper()
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := New(cfg)
	s.Handle(wire.Op(0x0F00), func(body []byte) (wire.Status, []byte) {
		return wire.StatusOK, append([]byte("echo:"), body...)
	})
	s.Handle(wire.Op(0x0F01), func(body []byte) (wire.Status, []byte) {
		return wire.StatusNotFound, nil
	})
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Shutdown)
	return n, s
}

// fixedService models every request as costing d.
func fixedService(d time.Duration) ServiceFunc {
	return func(_ wire.Op, run func()) time.Duration {
		run()
		return d
	}
}

func callBatch(t *testing.T, c *Client, subs []wire.SubReq) []wire.SubResp {
	t.Helper()
	body, err := wire.EncodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	st, resp, err := c.Call(wire.OpBatch, body)
	if err != nil {
		t.Fatal(err)
	}
	if st != wire.StatusOK {
		t.Fatalf("batch envelope status = %v", st)
	}
	resps, err := wire.DecodeBatchResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resps
}

// TestBatchPreservesOrder: sub-responses must line up with sub-requests even
// though the server dispatches them concurrently.
func TestBatchPreservesOrder(t *testing.T) {
	n, _ := startBatchServer(t, Config{})
	c, _ := Dial(n, "srv")
	defer c.Close()
	const k = 64
	subs := make([]wire.SubReq, k)
	for i := range subs {
		subs[i] = wire.SubReq{Op: wire.Op(0x0F00), Body: []byte(fmt.Sprintf("sub-%02d", i))}
	}
	resps := callBatch(t, c, subs)
	if len(resps) != k {
		t.Fatalf("got %d sub-responses, want %d", len(resps), k)
	}
	for i, r := range resps {
		want := fmt.Sprintf("echo:sub-%02d", i)
		if r.Status != wire.StatusOK || string(r.Body) != want {
			t.Errorf("sub %d = %v %q, want OK %q", i, r.Status, r.Body, want)
		}
	}
	if c.Trips() != 1 {
		t.Errorf("batch of %d cost %d trips, want 1", k, c.Trips())
	}
}

// TestBatchIsolatesErrors: a failing sub-request must not disturb its
// siblings, and unknown ops (including a nested OpBatch) fail only their own
// slot.
func TestBatchIsolatesErrors(t *testing.T) {
	n, _ := startBatchServer(t, Config{})
	c, _ := Dial(n, "srv")
	defer c.Close()
	nested, _ := wire.EncodeBatch([]wire.SubReq{{Op: wire.Op(0x0F00), Body: []byte("x")}})
	resps := callBatch(t, c, []wire.SubReq{
		{Op: wire.Op(0x0F00), Body: []byte("ok1")},
		{Op: wire.Op(0x0F01)},            // handler fails: ENOENT
		{Op: wire.Op(0x7777)},            // unregistered op
		{Op: wire.OpBatch, Body: nested}, // nesting is rejected
		{Op: wire.Op(0x0F00), Body: []byte("ok2")},
	})
	wantStatus := []wire.Status{wire.StatusOK, wire.StatusNotFound,
		wire.StatusInval, wire.StatusInval, wire.StatusOK}
	for i, want := range wantStatus {
		if resps[i].Status != want {
			t.Errorf("sub %d status = %v, want %v", i, resps[i].Status, want)
		}
	}
	if got := string(resps[0].Body); got != "echo:ok1" {
		t.Errorf("sub 0 body = %q", got)
	}
	if got := string(resps[4].Body); got != "echo:ok2" {
		t.Errorf("sub 4 body = %q", got)
	}
}

// TestBatchMalformedEnvelope: an undecodable batch body fails the envelope
// itself with EINVAL.
func TestBatchMalformedEnvelope(t *testing.T) {
	n, _ := startBatchServer(t, Config{})
	c, _ := Dial(n, "srv")
	defer c.Close()
	st, _, err := c.Call(wire.OpBatch, []byte{0xde, 0xad})
	if err != nil {
		t.Fatal(err)
	}
	if st != wire.StatusInval {
		t.Errorf("malformed batch envelope status = %v, want EINVAL", st)
	}
}

// TestBatchServiceSummed: the envelope's ServiceNS must be the sum of its
// sub-requests' modeled service times (the server CPU serializes the work
// even though one message carried it).
func TestBatchServiceSummed(t *testing.T) {
	n, _ := startBatchServer(t, Config{Service: fixedService(3 * time.Millisecond)})
	c, _ := Dial(n, "srv")
	defer c.Close()
	c.SetLink(netsim.LinkConfig{}) // zero link: virt = ServiceNS only
	subs := make([]wire.SubReq, 5)
	for i := range subs {
		subs[i] = wire.SubReq{Op: wire.Op(0x0F00)}
	}
	body, _ := wire.EncodeBatch(subs)
	_, _, virt, err := c.Do(CallSpec{Op: wire.OpBatch, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if virt < 15*time.Millisecond {
		t.Errorf("batch virt = %v, want >= 15ms (5 subs x 3ms)", virt)
	}
}

// TestBatchTracePropagates: batched sub-ops must appear in server slow logs
// under the parent request's trace id.
func TestBatchTracePropagates(t *testing.T) {
	n, _ := startBatchServer(t, Config{
		Service: fixedService(time.Second),
		Obs:     &obs.Handle{Slow: time.Millisecond},
	})
	c, _ := Dial(n, "srv")
	defer c.Close()

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	const trace = 0xabc123
	body, _ := wire.EncodeBatch([]wire.SubReq{{Op: wire.Op(0x0F00), Body: []byte("x")}})
	if _, _, _, err := c.Do(CallSpec{Op: wire.OpBatch, Body: body, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	logged := buf.String()
	if !strings.Contains(logged, fmt.Sprintf("trace=%#x", uint64(trace))) {
		t.Errorf("slow log missing parent trace id: %q", logged)
	}
	if !strings.Contains(logged, "op(0x0f00)") {
		t.Errorf("slow log missing sub-op: %q", logged)
	}
}

// TestBatchOverTCP: the batch must round-trip through a real TCP socket with
// per-sub-request statuses intact (acceptance criterion).
func TestBatchOverTCP(t *testing.T) {
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	s.Handle(wire.Op(0x0F00), func(body []byte) (wire.Status, []byte) {
		return wire.StatusOK, append([]byte("echo:"), body...)
	})
	s.Handle(wire.Op(0x0F01), func(body []byte) (wire.Status, []byte) {
		return wire.StatusNotFound, nil
	})
	go s.Serve(l)
	defer s.Shutdown()
	c, err := Dial(netsim.TCPDialer{}, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resps := callBatch(t, c, []wire.SubReq{
		{Op: wire.Op(0x0F00), Body: []byte("over-tcp")},
		{Op: wire.Op(0x0F01)},
		{Op: wire.Op(0x0F00), Body: []byte("again")},
	})
	if resps[0].Status != wire.StatusOK || string(resps[0].Body) != "echo:over-tcp" {
		t.Errorf("sub 0 = %v %q", resps[0].Status, resps[0].Body)
	}
	if resps[1].Status != wire.StatusNotFound {
		t.Errorf("sub 1 status = %v, want ENOENT", resps[1].Status)
	}
	if resps[2].Status != wire.StatusOK || string(resps[2].Body) != "echo:again" {
		t.Errorf("sub 2 = %v %q", resps[2].Status, resps[2].Body)
	}
}
