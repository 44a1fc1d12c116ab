package fms

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/chash"
	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// opParked is a test-only mutation routed through the window like the four
// real ones; it blocks until the test releases it, so a first delivery can be
// held in flight without holding the server lock the real mutations take.
const opParked = wire.Op(0x0F00)

// served is an FMS attached to an rpc.Server on an in-process fabric, with
// opParked registered beside the real handlers.
type served struct {
	s       *Server
	rs      *rpc.Server
	cl      *rpc.Client
	reg     *telemetry.Registry
	journal *obs.Journal

	parkedExecs atomic.Int64
	entered     chan struct{}
	release     chan struct{}
}

func serveFMS(t *testing.T) *served {
	t.Helper()
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	h := &obs.Handle{Reg: telemetry.NewRegistry(), Journal: obs.New(obs.Config{}).Journal}
	f := &served{
		s:       New(Options{ServerID: 1, Obs: h}),
		rs:      rpc.New(rpc.Config{Obs: h}),
		reg:     h.Reg,
		journal: h.Journal,
		entered: make(chan struct{}, 2),
		release: make(chan struct{}),
	}
	f.s.Attach(f.rs)
	f.rs.HandleMsg(opParked, func(req, trace uint64, body []byte) (wire.Status, []byte) {
		return f.s.atMostOnce(opParked, req, trace, func() (wire.Status, []byte) {
			f.parkedExecs.Add(1)
			f.entered <- struct{}{}
			<-f.release
			return wire.StatusOK, []byte("once")
		})
	})
	f.rs.Blocking(opParked) // parks on the test's channel
	l, err := n.Listen("fms")
	if err != nil {
		t.Fatal(err)
	}
	go f.rs.Serve(l)
	t.Cleanup(f.rs.Shutdown)
	if f.cl, err = rpc.Dial(n, "fms"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.cl.Close() })
	return f
}

func createBody(name string) []byte {
	return wire.NewEnc().UUID(dirA).Str(name).U32(0o644).U32(0).U32(0).Bool(false).Bytes()
}

// metricValue sums one metric's samples across label sets.
func metricValue(reg *telemetry.Registry, name string) float64 {
	var v float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == name {
			v += m.Value
		}
	}
	return v
}

// TestDedupReplaysFirstExecution: two deliveries of one create under one
// request id execute once; the duplicate is answered from the window with
// the recorded response, and the server counts the hit and journals it under
// the request's trace.
func TestDedupReplaysFirstExecution(t *testing.T) {
	f := serveFMS(t)
	spec := rpc.CallSpec{Op: wire.OpCreateFile, Body: createBody("f"), Req: 0xBEEF, Trace: 0x7ACE}
	st1, b1, _, err1 := f.cl.Do(spec)
	st2, b2, _, err2 := f.cl.Do(spec) // same request id: a "retry"
	if err1 != nil || err2 != nil || st1 != wire.StatusOK || st2 != wire.StatusOK {
		t.Fatalf("calls: %v %v %v %v", st1, err1, st2, err2)
	}
	if n := f.s.FileCount(); n != 1 {
		t.Errorf("create executed into %d files, want 1", n)
	}
	if string(b1) != string(b2) {
		t.Errorf("duplicate got %x, want replay of %x", b2, b1)
	}
	if hits := metricValue(f.reg, obs.MetricDedupHits); hits != 1 {
		t.Errorf("dedup hits = %v, want 1", hits)
	}
	var replays []obs.Event
	evs, _, _ := f.journal.Since(0, 0)
	for _, ev := range evs {
		if ev.Kind == obs.KindDedupReplay {
			replays = append(replays, ev)
		}
	}
	if len(replays) != 1 || replays[0].Trace != 0x7ACE || replays[0].Op != "CreateFile" {
		t.Errorf("dedup_replay events = %+v, want one CreateFile event under trace 0x7ace", replays)
	}
	// A different id executes afresh, and meets the first execution.
	if st, _, _, _ := f.cl.Do(rpc.CallSpec{Op: wire.OpCreateFile, Body: createBody("f"), Req: 0xCAFE}); st != wire.StatusExist {
		t.Errorf("distinct id = %v, want EEXIST from a fresh execution", st)
	}
}

// TestDedupRefusalNotRecorded: a create refused by the ownership guard
// executed nothing, so the window does not record it — the same request id
// executes once the map places the key here.
func TestDedupRefusalNotRecorded(t *testing.T) {
	f := serveFMS(t)
	two := []wire.Member{{ID: 0, Addr: "fms"}, {ID: 1, Addr: "other"}}
	name := ""
	for i := 0; name == ""; i++ {
		if c := fmt.Sprintf("f%d", i); chash.NewRing(0, 0, 1).Locate(FileKey(dirA, c)) == 1 {
			name = c
		}
	}
	f.rs.InstallMap(&wire.ClusterMap{Ver: 1, FMS: two}, wire.FMSCoords(0))
	spec := rpc.CallSpec{Op: wire.OpCreateFile, Body: createBody(name), Req: 7}
	if st, _, _, _ := f.cl.Do(spec); st != wire.StatusStale {
		t.Fatalf("create of a key the map places elsewhere = %v, want ESTALE", st)
	}
	f.rs.InstallMap(&wire.ClusterMap{Ver: 2, FMS: two[:1]}, wire.FMSCoords(0))
	if st, _, _, _ := f.cl.Do(spec); st != wire.StatusOK {
		t.Fatalf("same id once the key is owned here = %v, want OK (the refusal was replayed)", st)
	}
	if n := f.s.FileCount(); n != 1 {
		t.Errorf("files = %d, want 1", n)
	}
}

// TestDedupInFlightDuplicateWaits: a duplicate arriving while the first
// execution is still running waits for it and replays the same response,
// instead of executing concurrently.
func TestDedupInFlightDuplicateWaits(t *testing.T) {
	f := serveFMS(t)
	spec := rpc.CallSpec{Op: opParked, Req: 0xF00D}
	var wg sync.WaitGroup
	results := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, b, _, _ := f.cl.Do(spec)
			results[i] = string(b)
		}(i)
	}
	<-f.entered // first execution running
	select {
	case <-f.entered:
		t.Fatal("duplicate executed concurrently")
	case <-time.After(50 * time.Millisecond):
	}
	close(f.release)
	wg.Wait()
	if n := f.parkedExecs.Load(); n != 1 {
		t.Errorf("handler executed %d times, want 1", n)
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
	e1.complete(wire.StatusOK, nil)
	for i := 2; i <= DedupWindow+1; i++ {
		e, dup := w.begin(uint64(i))
		if dup {
			t.Fatalf("id %d reported as duplicate", i)
		}
		e.complete(wire.StatusOK, nil)
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
		e.complete(wire.StatusOK, []byte{byte(i)})
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
	if w.inflightSkips.Load() == 0 {
		t.Error("no in-flight eviction skips counted")
	}
	// The window did not balloon: only the one in-flight entry overflows.
	if n := len(w.fifo); n > DedupWindow+1 {
		t.Errorf("window size = %d, want <= %d", n, DedupWindow+1)
	}
	// Once completed, the parked entry's duplicate replays its outcome...
	parked.complete(wire.StatusExist, []byte("first"))
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
			e.complete(wire.StatusOK, nil)
		}
	}
	if _, dup := w.begin(1); dup {
		t.Error("completed entry never evicted")
	}
}

// TestDedupInFlightSkipsEndToEnd: with a mutation parked mid-execution,
// flooding the window with real creates does not evict the parked request's
// entry; its retry replays the recorded response (one execution total) and
// the skip counter surfaces through the FMS's exported gauge.
func TestDedupInFlightSkipsEndToEnd(t *testing.T) {
	f := serveFMS(t)

	// Park one mutation mid-execution.
	parkedDone := make(chan string, 1)
	go func() {
		_, b, _, _ := f.cl.Do(rpc.CallSpec{Op: opParked, Req: 0xAAAA})
		parkedDone <- string(b)
	}()
	<-f.entered
	// Flood the window past DedupWindow with other deduped requests.
	for i := 0; i < DedupWindow+64; i++ {
		spec := rpc.CallSpec{Op: wire.OpCreateFile, Body: createBody(fmt.Sprintf("flood%d", i)), Req: 0x10000 + uint64(i)}
		if st, _, _, err := f.cl.Do(spec); err != nil || st != wire.StatusOK {
			t.Fatalf("flood call %d: %v %v", i, st, err)
		}
	}
	if metricValue(f.reg, MetricDedupInflightSkips) == 0 {
		t.Error("server counted no in-flight eviction skips")
	}
	// Retry of the parked request must wait for the original, not re-run.
	retryDone := make(chan string, 1)
	go func() {
		_, b, _, _ := f.cl.Do(rpc.CallSpec{Op: opParked, Req: 0xAAAA})
		retryDone <- string(b)
	}()
	select {
	case b := <-retryDone:
		t.Fatalf("retry completed while original parked (body %q)", b)
	case <-time.After(50 * time.Millisecond):
	}
	close(f.release)
	if b := <-parkedDone; b != "once" {
		t.Errorf("original body = %q", b)
	}
	if b := <-retryDone; b != "once" {
		t.Errorf("retry body = %q, want replay", b)
	}
	if n := f.parkedExecs.Load(); n != 1 {
		t.Errorf("handler executed %d times, want 1", n)
	}
}
