package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/telemetry"
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

// TestDedupReplaysFirstExecution: two deliveries of one request id execute
// the handler once; the duplicate is answered from the dedup window with
// the recorded response, and the server counts the hit.
func TestDedupReplaysFirstExecution(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	reg := telemetry.NewRegistry()
	s := New(Config{Obs: &obs.Handle{Reg: reg}})
	var execs atomic.Int64
	s.Handle(wire.Op(0x0F00), func(body []byte) (wire.Status, []byte) {
		execs.Add(1)
		return wire.StatusOK, []byte{byte(execs.Load())}
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := CallSpec{Op: wire.Op(0x0F00), Req: 0xBEEF}
	st1, b1, _, err1 := c.Do(spec)
	st2, b2, _, err2 := c.Do(spec) // same request id: a "retry"
	if err1 != nil || err2 != nil || st1 != wire.StatusOK || st2 != wire.StatusOK {
		t.Fatalf("calls: %v %v %v %v", st1, err1, st2, err2)
	}
	if execs.Load() != 1 {
		t.Errorf("handler executed %d times, want 1", execs.Load())
	}
	if len(b1) != 1 || len(b2) != 1 || b1[0] != b2[0] {
		t.Errorf("duplicate got %v, want replay of %v", b2, b1)
	}
	hits := counterValue(t, reg, MetricDedup)
	if hits != 1 {
		t.Errorf("dedup hits = %d, want 1", hits)
	}
	// A different id executes afresh.
	if _, b3, _, _ := c.Do(CallSpec{Op: wire.Op(0x0F00), Req: 0xCAFE}); len(b3) != 1 || b3[0] != 2 {
		t.Errorf("distinct id replayed: %v", b3)
	}
}

// TestDedupInFlightDuplicateWaits: a duplicate arriving while the first
// execution is still running waits for it and replays the same response,
// instead of executing concurrently.
func TestDedupInFlightDuplicateWaits(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := NewServer()
	var execs atomic.Int64
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.Handle(wire.Op(0x0F00), func(body []byte) (wire.Status, []byte) {
		execs.Add(1)
		entered <- struct{}{}
		<-release
		return wire.StatusOK, []byte("once")
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := CallSpec{Op: wire.Op(0x0F00), Req: 0xF00D}
	var wg sync.WaitGroup
	results := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, b, _, _ := c.Do(spec)
			results[i] = string(b)
		}(i)
	}
	<-entered // first execution running
	select {
	case <-entered:
		t.Fatal("duplicate executed concurrently")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	wg.Wait()
	if execs.Load() != 1 {
		t.Errorf("handler executed %d times, want 1", execs.Load())
	}
	if results[0] != "once" || results[1] != "once" {
		t.Errorf("results = %q", results)
	}
}

// TestDedupWindowEviction: the FIFO window forgets the oldest completed
// ids, so a very late duplicate re-executes rather than pinning memory
// forever.
func TestDedupWindowEviction(t *testing.T) {
	var w dedupWindow
	e1, dup := w.begin(1)
	if dup {
		t.Fatal("fresh id reported as duplicate")
	}
	e1.complete(wire.StatusOK, nil, 0)
	for i := 2; i <= DedupWindow+1; i++ {
		e, dup := w.begin(uint64(i))
		if dup {
			t.Fatalf("id %d reported as duplicate", i)
		}
		e.complete(wire.StatusOK, nil, 0)
	}
	// id 1 was evicted by the DedupWindow ids that followed it.
	if _, dup := w.begin(1); dup {
		t.Error("evicted id still tracked")
	}
	// A live id is still recognized.
	if _, dup := w.begin(DedupWindow + 1); !dup {
		t.Error("recent id forgotten")
	}
}

// TestDedupWindowInFlightNotEvicted: an entry whose request is still
// executing survives the FIFO overflowing past DedupWindow — evicting it
// would let a concurrent retry re-execute the mutation. The spared
// evictions are counted, and completed neighbors are evicted instead.
func TestDedupWindowInFlightNotEvicted(t *testing.T) {
	var w dedupWindow
	parked, dup := w.begin(1) // in-flight: never completed during the flood
	if dup {
		t.Fatal("fresh id reported as duplicate")
	}
	// Flood the window far past DedupWindow with completed entries.
	for i := 2; i <= 2*DedupWindow; i++ {
		e, dup := w.begin(uint64(i))
		if dup {
			t.Fatalf("id %d reported as duplicate", i)
		}
		e.complete(wire.StatusOK, []byte{byte(i)}, 0)
	}
	// The parked entry must still be tracked: its duplicate must wait and
	// replay, not re-execute.
	got, dup := w.begin(1)
	if !dup {
		t.Fatal("in-flight entry was evicted by the flood")
	}
	if got != parked {
		t.Fatal("duplicate resolved to a different entry")
	}
	if w.InflightSkips() == 0 {
		t.Error("no in-flight eviction skips counted")
	}
	// The window did not balloon: only the one in-flight entry overflows.
	if n := w.size(); n > DedupWindow+1 {
		t.Errorf("window size = %d, want <= %d", n, DedupWindow+1)
	}
	// Once completed, the parked entry's duplicate replays its outcome...
	parked.complete(wire.StatusExist, []byte("first"), 7)
	select {
	case <-got.done:
	default:
		t.Fatal("duplicate's entry not released by complete")
	}
	if got.status != wire.StatusExist || string(got.body) != "first" {
		t.Errorf("replayed outcome = %v %q", got.status, got.body)
	}
	// ...and the entry becomes evictable by further traffic.
	for i := 2 * DedupWindow; i <= 3*DedupWindow+2; i++ {
		e, dup := w.begin(uint64(i))
		if !dup {
			e.complete(wire.StatusOK, nil, 0)
		}
	}
	if _, dup := w.begin(1); dup {
		t.Error("completed entry never evicted")
	}
}

// TestDedupInFlightSkipsEndToEnd: with a server worker parked mid-mutation,
// flooding the dedup window does not evict the parked request's entry; its
// retry replays the recorded response (one execution total) and the skip
// counter surfaces through the server.
func TestDedupInFlightSkipsEndToEnd(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := NewServer()
	var execs atomic.Int64
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.Handle(wire.Op(0x0F00), func(body []byte) (wire.Status, []byte) {
		execs.Add(1)
		entered <- struct{}{}
		<-release
		return wire.StatusOK, []byte("once")
	})
	s.Handle(wire.Op(0x0F01), func(body []byte) (wire.Status, []byte) {
		return wire.StatusOK, nil
	})
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Park one mutation mid-execution.
	parkedDone := make(chan string, 1)
	go func() {
		_, b, _, _ := c.Do(CallSpec{Op: wire.Op(0x0F00), Req: 0xAAAA})
		parkedDone <- string(b)
	}()
	<-entered
	// Flood the window past DedupWindow with other deduped requests.
	for i := 0; i < DedupWindow+64; i++ {
		if st, _, _, err := c.Do(CallSpec{Op: wire.Op(0x0F01), Req: 0x10000 + uint64(i)}); err != nil || st != wire.StatusOK {
			t.Fatalf("flood call %d: %v %v", i, st, err)
		}
	}
	if s.DedupInflightSkips() == 0 {
		t.Error("server counted no in-flight eviction skips")
	}
	// Retry of the parked request must wait for the original, not re-run.
	retryDone := make(chan string, 1)
	go func() {
		_, b, _, _ := c.Do(CallSpec{Op: wire.Op(0x0F00), Req: 0xAAAA})
		retryDone <- string(b)
	}()
	select {
	case b := <-retryDone:
		t.Fatalf("retry completed while original parked (body %q)", b)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if b := <-parkedDone; b != "once" {
		t.Errorf("original body = %q", b)
	}
	if b := <-retryDone; b != "once" {
		t.Errorf("retry body = %q, want replay", b)
	}
	if execs.Load() != 1 {
		t.Errorf("handler executed %d times, want 1", execs.Load())
	}
}

// counterValue sums one counter metric across label sets.
func counterValue(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	var n uint64
	for _, m := range reg.Snapshot().Metrics {
		if m.Kind == telemetry.KindCounter && m.Name == name {
			n += uint64(m.Value)
		}
	}
	return n
}
