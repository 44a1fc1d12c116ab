package client

import (
	"testing"
	"time"

	"locofs/internal/dms"
	"locofs/internal/fms"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
)

// TestClientSurvivesServerRestart: an FMS is shut down and restarted (on
// the same durable store, as locofsd -data would); the client's next
// operation transparently reconnects and succeeds.
func TestClientSurvivesServerRestart(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })

	serve := func(addr string, attach func(*rpc.Server)) *rpc.Server {
		rs := rpc.NewServer()
		attach(rs)
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go rs.Serve(l)
		return rs
	}
	serve("dms", soloDMS(dms.New(dms.Options{})))
	fmsStore := kv.NewHashStore() // shared "durable" state across restarts
	fmsServer := serve("fms-0", fms.New(fms.Options{Store: fmsStore, ServerID: 1}).Attach)
	serve("oss", objstore.New(nil).Attach)

	c, err := Dial(Config{
		Dialer:   n,
		DMSAddr:  "dms",
		FMSAddrs: []string{"fms-0"},
		OSSAddrs: []string{"oss"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/d/before", 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart the FMS on the same address and store.
	fmsServer.Shutdown()
	serve("fms-0", fms.New(fms.Options{Store: fmsStore, ServerID: 1}).Attach)

	// The client's first call may race the connection teardown; the
	// endpoint retries once per call, so within a couple of attempts the
	// new server must be reachable — and the old state visible.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = c.StatFile("/d/before")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered after restart: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Create("/d/after", 0o644); err != nil {
		t.Fatalf("create after restart: %v", err)
	}
	if _, err := c.StatFile("/d/after"); err != nil {
		t.Fatalf("stat after restart: %v", err)
	}
	// Counters survived the generation change.
	if c.Trips() == 0 {
		t.Error("trip counter lost across reconnect")
	}
}

// TestEndpointRetryPreservesCounters unit-tests the endpoint generation
// accounting.
func TestEndpointRetryPreservesCounters(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	rs1 := rpc.NewServer()
	l, _ := n.Listen("srv")
	go rs1.Serve(l)

	e, err := dialEndpoint(n, "srv", netsim.LinkConfig{RTT: time.Millisecond},
		&clientTelem{Handle: &obs.Handle{Reg: telemetry.NewRegistry()}},
		newResilience(0, RetryPolicy{}, BreakerConfig{}, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 5; i++ {
		if _, _, _, err := e.Call(opCtx{}, 1, nil); err != nil { // OpPing
			t.Fatal(err)
		}
	}
	t1 := e.Trips()
	v1 := e.VirtualTime()
	if t1 != 5 || v1 < 5*time.Millisecond {
		t.Fatalf("pre-restart counters: trips=%d virt=%v", t1, v1)
	}
	rs1.Shutdown()
	rs2 := rpc.NewServer()
	l2, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go rs2.Serve(l2)
	defer rs2.Shutdown()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, _, err := e.Call(opCtx{}, 1, nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("endpoint never reconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if e.Trips() <= t1 {
		t.Errorf("trips not cumulative: %d then %d", t1, e.Trips())
	}
	if e.VirtualTime() <= v1 {
		t.Errorf("virtual time not cumulative: %v then %v", v1, e.VirtualTime())
	}
	// A closed endpoint refuses calls.
	e.Close()
	if _, _, _, err := e.Call(opCtx{}, 1, nil); err == nil {
		t.Error("call on closed endpoint succeeded")
	}
}
