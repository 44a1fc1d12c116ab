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

// callBatch starts one call per sub-request, flushes them in one write and
// waits on each: the pipelined group a client sends its multi-request steps
// as.
func callBatch(t *testing.T, c *Client, subs []wire.SubReq) []wire.SubResp {
	t.Helper()
	calls := make([]Call, len(subs))
	for i, s := range subs {
		calls[i] = c.Start(CallSpec{Op: s.Op, Body: s.Body})
	}
	c.Flush()
	resps := make([]wire.SubResp, len(subs))
	for i := range calls {
		st, body, _, err := calls[i].Wait()
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = wire.SubResp{Status: st, Body: body}
	}
	return resps
}

// TestBatchPreservesOrder: a flushed group's responses line up with its
// calls, and the group counts one round trip — a Flush with nothing started
// counts none.
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
	for i, r := range resps {
		want := fmt.Sprintf("echo:sub-%02d", i)
		if r.Status != wire.StatusOK || string(r.Body) != want {
			t.Errorf("sub %d = %v %q, want OK %q", i, r.Status, r.Body, want)
		}
	}
	c.Flush()
	if c.Trips() != 1 {
		t.Errorf("group of %d cost %d trips, want 1", k, c.Trips())
	}
}

// TestBatchIsolatesErrors: a failing call must not disturb the others in its
// group, and an unknown op fails only its own call.
func TestBatchIsolatesErrors(t *testing.T) {
	n, _ := startBatchServer(t, Config{})
	c, _ := Dial(n, "srv")
	defer c.Close()
	resps := callBatch(t, c, []wire.SubReq{
		{Op: wire.Op(0x0F00), Body: []byte("ok1")},
		{Op: wire.Op(0x0F01)}, // handler fails: ENOENT
		{Op: wire.Op(0x7777)}, // unregistered op
		{Op: wire.Op(0x0F00), Body: []byte("ok2")},
	})
	wantStatus := []wire.Status{wire.StatusOK, wire.StatusNotFound, wire.StatusInval, wire.StatusOK}
	for i, want := range wantStatus {
		if resps[i].Status != want {
			t.Errorf("sub %d status = %v, want %v", i, resps[i].Status, want)
		}
	}
	if got := string(resps[0].Body); got != "echo:ok1" {
		t.Errorf("sub 0 body = %q", got)
	}
	if got := string(resps[3].Body); got != "echo:ok2" {
		t.Errorf("sub 3 body = %q", got)
	}
}

// TestBatchServiceSummed: each call of a group reports its own modeled
// service time, so the group's summed virtual time holds every call's work
// (the server's CPU serializes it even though one write carried it).
func TestBatchServiceSummed(t *testing.T) {
	n, _ := startBatchServer(t, Config{Service: fixedService(3 * time.Millisecond)})
	c, _ := Dial(n, "srv")
	defer c.Close()
	c.SetLink(netsim.LinkConfig{}) // zero link: virt = ServiceNS only
	calls := make([]Call, 5)
	for i := range calls {
		calls[i] = c.Start(CallSpec{Op: wire.Op(0x0F00)})
	}
	c.Flush()
	var sum time.Duration
	for i := range calls {
		_, _, virt, err := calls[i].Wait()
		if err != nil {
			t.Fatal(err)
		}
		if virt != 3*time.Millisecond {
			t.Errorf("call %d virt = %v, want its own 3ms", i, virt)
		}
		sum += virt
	}
	if sum != 15*time.Millisecond || c.VirtualTime() != sum {
		t.Errorf("group virt = %v (client total %v), want 15ms (5 calls x 3ms)", sum, c.VirtualTime())
	}
}

// TestBatchTracePropagates: every call of a group appears in the server's
// slow log as its own request, under its own trace id and opcode.
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

	traces := []uint64{0xabc123, 0xabc124}
	ops := []wire.Op{0x0F00, 0x0F01}
	calls := make([]Call, len(traces))
	for i := range calls {
		calls[i] = c.Start(CallSpec{Op: ops[i], Body: []byte("x"), Trace: traces[i]})
	}
	c.Flush()
	for i := range calls {
		if _, _, _, err := calls[i].Wait(); err != nil {
			t.Fatal(err)
		}
	}
	logged := buf.String()
	for i, tr := range traces {
		want := fmt.Sprintf("trace=%#x op=%s", tr, ops[i])
		if !strings.Contains(logged, want) {
			t.Errorf("slow log missing %q: %q", want, logged)
		}
	}
}

// TestBatchOverTCP: a group must round-trip through a real TCP socket with
// per-call statuses intact, in one round trip.
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
	if c.Trips() != 1 {
		t.Errorf("group over tcp cost %d trips, want 1", c.Trips())
	}
}
