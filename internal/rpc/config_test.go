package rpc

import (
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
	"locofs/internal/wire"
)

// pingAllocs returns the allocations one null OpPing round trip costs, client
// and server goroutines together, over the in-process pipe against a server
// observed through h.
func pingAllocs(t *testing.T, h *obs.Handle) float64 {
	t.Helper()
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Obs: h})
	go s.Serve(l)
	defer s.Shutdown()
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ping := func() {
		if _, _, err := c.Call(wire.OpPing, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // first-request instrument creation, pools
		ping()
	}
	return testing.AllocsPerRun(2000, ping)
}

// TestRequestPathAllocs holds the request path allocation-flat: one of
// ROADMAP item 8's quantities that repeat exactly, so a tier-1 gate rather
// than a noisy timing. The bounds are what the same round trip measured
// once requests ran on the connection's reader instead of a goroutine each
// (8 and 9 before).
func TestRequestPathAllocs(t *testing.T) {
	const boundNil, boundFull = 6, 7
	off := pingAllocs(t, nil)
	if off > boundNil {
		t.Errorf("nil handle: %v allocs per ping, bound %d", off, boundNil)
	}
	full := pingAllocs(t, &obs.Handle{
		Name:    "srv",
		Reg:     telemetry.NewRegistry(telemetry.L("server", "srv")),
		Tracer:  trace.New(trace.Config{Sample: 1}),
		Journal: obs.New(obs.Config{}).Journal,
		Slow:    time.Hour,
	})
	if full > boundFull {
		t.Errorf("full handle: %v allocs per ping, bound %d", full, boundFull)
	}
	// Observability that has nothing to record must cost nothing: a tracer
	// sampled out entirely and a slow threshold no request reaches.
	idle := pingAllocs(t, &obs.Handle{
		Name:   "srv",
		Tracer: trace.New(trace.Config{Sample: 0}),
		Slow:   time.Hour,
	})
	if idle != off {
		t.Errorf("sampled-out tracer + unreached slow threshold: %v allocs per ping, nil handle %v", idle, off)
	}
}

// TestRegistrationEndsAtServe: the request path reads the handler table
// without a lock, so registering once Serve has started must fail loudly
// rather than race.
func TestRegistrationEndsAtServe(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	defer n.Close()
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	go s.Serve(l)
	defer s.Shutdown()
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Call(wire.OpPing, nil); err != nil { // Serve is running
		t.Fatal(err)
	}
	for name, register := range map[string]func(){
		"Handle": func() { s.Handle(wire.OpMkdir, func([]byte) (wire.Status, []byte) { return wire.StatusOK, nil }) },
		"HandleMsg": func() {
			s.HandleMsg(wire.OpMkdir, func(uint64, uint64, []byte) (wire.Status, []byte) { return wire.StatusOK, nil })
		},
		"SetLeaseFunc": func() { s.SetLeaseFunc(func() uint64 { return 1 }) },
		"Blocking":     func() { s.Blocking(wire.OpPing) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Serve did not panic", name)
				}
			}()
			register()
		}()
	}
	// The table is unchanged: the late op is still unknown.
	if st, _, err := c.Call(wire.OpMkdir, nil); err != nil || st != wire.StatusInval {
		t.Errorf("late-registered op = %v %v, want EINVAL", st, err)
	}
}
