package client

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// opRecord is a non-idempotent test op: its handler records the dedup id
// of every execution.
const opRecord = wire.Op(0x0F10)

// groupServer serves OpPing and opRecord at "srv" on a fresh network, with
// service time modeled as svc per request. The first opRecord execution,
// when breakFirst is set, plants a disconnect on the address that its own
// response trips, so no response of that connection reaches the client.
func groupServer(t *testing.T, link netsim.LinkConfig, svc time.Duration, breakFirst bool) (n *netsim.Network, ids func() []uint64) {
	t.Helper()
	n = netsim.NewNetwork(link)
	t.Cleanup(func() { n.Close() })
	rs := rpc.New(rpc.Config{Service: func(_ wire.Op, run func()) time.Duration {
		run()
		return svc
	}})
	var mu sync.Mutex
	var seen []uint64
	var broke atomic.Bool
	rs.HandleMsg(opRecord, func(req, _ uint64, body []byte) (wire.Status, []byte) {
		mu.Lock()
		seen = append(seen, req)
		mu.Unlock()
		if breakFirst && broke.CompareAndSwap(false, true) {
			n.SetFault("srv", netsim.FaultConfig{DisconnectAfter: 1})
		}
		return wire.StatusOK, body
	})
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go rs.Serve(l)
	t.Cleanup(rs.Shutdown)
	return n, func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), seen...)
	}
}

// groupEndpoint dials "srv" under retry policy p.
func groupEndpoint(t *testing.T, n *netsim.Network, link netsim.LinkConfig, p RetryPolicy) *endpoint {
	t.Helper()
	e, err := dialEndpoint(n, "srv", link,
		&clientTelem{Handle: &obs.Handle{Reg: telemetry.NewRegistry()}},
		newResilience(0, p, BreakerConfig{}, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// recordGroup is the group the resilience tests send: a non-idempotent
// request first, so its execution breaks the connection before any response
// goes out, then two idempotent ones.
func recordGroup() []wire.SubReq {
	return []wire.SubReq{
		{Op: opRecord, Body: []byte("r")},
		{Op: wire.OpPing, Body: []byte("a")},
		{Op: wire.OpPing, Body: []byte("b")},
	}
}

// TestGroupBrokenConnectionFailsEveryWaiter: a connection that breaks while
// a group is on it fails every request of the group, not only the one whose
// response was lost.
func TestGroupBrokenConnectionFailsEveryWaiter(t *testing.T) {
	n, ids := groupServer(t, netsim.Loopback, 0, true)
	e := groupEndpoint(t, n, netsim.Loopback, RetryPolicy{Max: -1})
	subs := recordGroup()
	resps := make([]wire.SubResp, len(subs))
	if _, err := e.send(opCtx{}, subs, resps); err == nil {
		t.Fatal("group on a broken connection succeeded")
	}
	for i, r := range resps {
		if r.Status != wire.StatusIO {
			t.Errorf("request %d (%v) = %v, want EIO: every waiter of the group fails", i, subs[i].Op, r.Status)
		}
	}
	if got := ids(); len(got) != 1 {
		t.Errorf("record op executed %d times, want once", len(got))
	}
}

// TestGroupRetryReplaysDedupID: after the connection breaks mid-group, the
// whole group retries once through a fresh connection, and the
// non-idempotent request carries the dedup id it was given before the first
// attempt — a server that executed it can answer the retry from its record.
func TestGroupRetryReplaysDedupID(t *testing.T) {
	n, ids := groupServer(t, netsim.Loopback, 0, true)
	e := groupEndpoint(t, n, netsim.Loopback, RetryPolicy{Max: 1})
	first, _ := e.current()
	subs := recordGroup()
	resps := make([]wire.SubResp, len(subs))
	if _, err := e.send(opCtx{}, subs, resps); err != nil {
		t.Fatalf("group not retried to success: %v", err)
	}
	for i, want := range []string{"r", "a", "b"} {
		if resps[i].Status != wire.StatusOK || string(resps[i].Body) != want {
			t.Errorf("request %d = %v %q, want OK %q", i, resps[i].Status, resps[i].Body, want)
		}
	}
	if cl, _ := e.current(); cl == first {
		t.Error("retry reused the broken connection")
	}
	got := ids()
	if len(got) != 2 || got[0] == 0 || got[0] != got[1] {
		t.Fatalf("record op executed with dedup ids %#x, want one non-zero id twice", got)
	}
	if subs[0].Req != got[0] || subs[1].Req != 0 {
		t.Errorf("send left ids %#x/%#x on its requests, want %#x on the non-idempotent one only",
			subs[0].Req, subs[1].Req, got[0])
	}
	for _, op := range []wire.Op{opRecord, wire.OpPing} {
		if r := e.telem.forOp(op).retries.Load(); r == 0 {
			t.Errorf("%v: no retry counted", op)
		}
	}
}

// TestGroupPricedAsOneTrip: a group of k requests counts one round trip and
// is priced like the envelope it replaced — one round of link delays plus
// the summed service times — in the send's virtual time and in the
// endpoint's running total alike.
func TestGroupPricedAsOneTrip(t *testing.T) {
	link := netsim.LinkConfig{RTT: time.Millisecond}
	n, _ := groupServer(t, link, 100*time.Microsecond, false)
	e := groupEndpoint(t, n, link, RetryPolicy{})
	virt, err := e.send(opCtx{}, recordGroup(), make([]wire.SubResp, 3))
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Millisecond + 3*100*time.Microsecond; virt != want || e.VirtualTime() != want {
		t.Errorf("group virt = %v (endpoint total %v), want %v", virt, e.VirtualTime(), want)
	}
	if e.Trips() != 1 {
		t.Errorf("group cost %d trips, want 1", e.Trips())
	}
}
