package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"locofs/internal/client"
	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/trace"
)

// TestFlightRecorderCapturesBreakerFlapBundle is the end-to-end black-box
// story: a netsim blackhole on the only FMS makes client calls burn their
// deadline, the circuit breaker flaps (open → half-open probe → open ...),
// each transition lands in the cluster's shared flight journal, the
// breaker-flap rule fires on the next anomaly poll, and the captured bundle
// holds the correlated breaker events, the force-kept error spans of the
// failed operations, and a live goroutine profile.
func TestFlightRecorderCapturesBreakerFlapBundle(t *testing.T) {
	tr := trace.New(trace.Config{Sample: 1, BufSpans: 256})
	c := startCluster(t, Options{
		FMSCount: 1,
		Tracer:   tr,
	})
	cl := newClient(t, c, ClientConfig{
		Obs:       &obs.Handle{Tracer: tr},
		OpTimeout: 25 * time.Millisecond,
		Retry:     client.RetryPolicy{Max: -1},
		Breaker:   client.BreakerConfig{Threshold: 1, Cooldown: 30 * time.Millisecond},
	})
	if err := cl.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/d/f", 0o644); err != nil {
		t.Fatal(err)
	}

	// Sever the FMS. Every stat now burns its deadline or fast-fails, and
	// each breaker transition is journaled.
	c.Network().SetFault("fms-0", netsim.FaultConfig{Blackhole: true})
	deadlineCh := time.After(10 * time.Second)
	for c.Flight.Journal.CountKindSince(obs.KindBreaker, 0) < 3 {
		select {
		case <-deadlineCh:
			t.Fatalf("breaker produced only %d transitions",
				c.Flight.Journal.CountKindSince(obs.KindBreaker, 0))
		default:
		}
		_, _ = cl.StatFile("/d/f")
		time.Sleep(35 * time.Millisecond) // let the cooldown elapse so the breaker flaps again
	}

	// One deterministic anomaly poll instead of background Start().
	fired := c.Flight.Poll()
	var flap bool
	for _, a := range fired {
		if a.Rule == "breaker-flap" {
			flap = true
		}
	}
	if !flap {
		t.Fatalf("breaker-flap did not fire; fired = %+v", fired)
	}
	if c.Flight.Captures() == 0 {
		t.Fatal("anomaly fired but no bundle captured")
	}

	b := c.Flight.LastBundle()
	if b == nil {
		t.Fatal("no bundle retained")
	}
	if b.Reason != "breaker-flap" {
		t.Errorf("bundle reason = %q, want breaker-flap", b.Reason)
	}
	// Correlated breaker events survived into the bundle.
	if got := len(b.EventsOfKind(obs.KindBreaker)); got < 3 {
		t.Errorf("bundle breaker events = %d, want >= 3", got)
	}
	// The failed stats' spans are force-kept (non-OK status) and selected
	// into the bundle ahead of healthy spans.
	errSpans := b.ErrorSpans()
	if len(errSpans) == 0 {
		t.Fatal("bundle holds no error spans for the failed ops")
	}
	for _, sp := range errSpans {
		if sp.Status == "" {
			t.Errorf("error span without status: %+v", sp)
		}
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Error("bundle goroutine profile empty")
	}
	// The cluster map rode along in Extra.
	if b.Extra["map"] == nil {
		t.Errorf("bundle extra lacks the cluster map: %+v", b.Extra)
	}

	// The anomaly reaches the merged cluster status (the /debug/cluster body).
	cs := c.ClusterStatus()
	var seen bool
	for _, a := range cs.Anomalies {
		if a.Rule == "breaker-flap" && a.Source == "cluster" {
			seen = true
		}
	}
	if !seen {
		t.Errorf("cluster status anomalies = %+v, want breaker-flap from cluster", cs.Anomalies)
	}
}

// TestClusterJournalCollectsServerAndClientEvents checks the shared-journal
// wiring: map installs from the servers and lease recalls from the DMS
// land in one timeline alongside client-side events.
func TestClusterJournalCollectsServerAndClientEvents(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 2})
	j := c.Flight.Journal
	// Start installed map version 1 on every server: one KindEpoch per rpc server.
	if got := j.KindCounts()["epoch"]; got == 0 {
		t.Fatalf("no epoch events after Start; counts = %v", j.KindCounts())
	}
	cl := newClient(t, c, ClientConfig{})
	if err := cl.Mkdir("/flight", 0o755); err != nil {
		t.Fatal(err)
	}
	// Readdir grants a listing lease; the next create under the directory
	// must publish a recall, which must be journaled.
	if _, err := cl.Readdir("/flight"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/flight/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if got := j.KindCounts()["lease_recall"]; got == 0 {
		t.Fatalf("no lease_recall events after coherent mutation; counts = %v", j.KindCounts())
	}
	// AddFMS migrates keys and installs new map versions; both event kinds land.
	// Which keys move depends on the directory's UUID, so create enough
	// files that the grown ring must take some (a third of them on average).
	for i := 0; i < 32; i++ {
		if err := cl.Create(fmt.Sprintf("/flight/f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddFMS(); err != nil {
		t.Fatal(err)
	}
	counts := j.KindCounts()
	if counts["migration"] == 0 {
		t.Errorf("no migration events after AddFMS; counts = %v", counts)
	}
	if counts["epoch"] < 2 {
		t.Errorf("epoch events = %d, want >= 2 after AddFMS", counts["epoch"])
	}
}

// TestFlightCountersSurviveDMSFailover: the cluster's journal and recorder
// counters are exported once, by the cluster's own process, so failing over
// the bootstrap DMS leaves them in the merged status. The parent commit
// exported them on the "dms" server's registry, which the status stops
// scraping once "dms" is killed: the count read 0 and the flight: line went
// blank.
func TestFlightCountersSurviveDMSFailover(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 1, DMSReplicas: 2})
	cl := newClient(t, c, ClientConfig{})
	if err := cl.Mkdir("/f", 0o755); err != nil {
		t.Fatal(err)
	}
	before := c.ClusterStatus().SumCounter(obs.MetricEvents)
	if before == 0 {
		t.Fatal("no journal events counted before the failover")
	}
	if err := c.FailoverDMS(0); err != nil {
		t.Fatal(err)
	}
	cs := c.ClusterStatus()
	if after := cs.SumCounter(obs.MetricEvents); after < before {
		t.Fatalf("%s = %v after FailoverDMS(0), was %v before", obs.MetricEvents, after, before)
	}
	var sb strings.Builder
	cs.Format(&sb)
	if !strings.Contains(sb.String(), "flight:") {
		t.Errorf("status table lost its flight: line after the failover:\n%s", sb.String())
	}
}

// TestSpanRingEvictionCounterSurfacesClusterWide drives enough traced
// traffic through a deliberately tiny span ring that the ring must wrap,
// and asserts the eviction counter (exported per server since PR 6) is
// visible in the merged cluster status — the end-to-end path an operator
// uses to notice an undersized -trace-buf.
func TestSpanRingEvictionCounterSurfacesClusterWide(t *testing.T) {
	tr := trace.New(trace.Config{Sample: 1, BufSpans: 4})
	c := startCluster(t, Options{FMSCount: 1, Tracer: tr})
	cl := newClient(t, c, ClientConfig{Obs: &obs.Handle{Tracer: tr}})
	if err := cl.Mkdir("/ev", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := cl.StatDir("/ev"); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Evicted() == 0 {
		t.Fatal("4-slot span ring did not evict under 20+ traced ops")
	}
	cs := c.ClusterStatus()
	if got := cs.SumCounter(trace.MetricSpansEvicted); got == 0 {
		t.Fatalf("merged %s = %v, want > 0", trace.MetricSpansEvicted, got)
	}
}

// TestClusterStatusRendersCacheAndLeaseCounters drives a cacheable workload
// and asserts the merged status carries the PR-7 client dircache counters
// and DMS lease totals — and that Format renders the CACHE/LEASES section
// the `locofsd -role status` summary shows.
func TestClusterStatusRendersCacheAndLeaseCounters(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 1})
	cl := newClient(t, c, ClientConfig{})
	if err := cl.Mkdir("/cc", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/cc/f", 0o644); err != nil {
		t.Fatal(err)
	}
	// Repeat stats resolve /cc from the client cache: hits accumulate.
	for i := 0; i < 5; i++ {
		if _, err := cl.StatFile("/cc/f"); err != nil {
			t.Fatal(err)
		}
	}
	cs := c.ClusterStatus()
	if got := cs.SumCounter("locofs_client_dircache_hits_total"); got == 0 {
		t.Fatalf("merged dircache hits = %v, want > 0", got)
	}
	if got := cs.SumCounter("locofs_dms_lease_grants_total"); got == 0 {
		t.Fatalf("merged lease grants = %v, want > 0", got)
	}
	var sb strings.Builder
	cs.Format(&sb)
	out := sb.String()
	for _, want := range []string{"dircache hits", "leases granted", "flight:"} {
		if !strings.Contains(out, want) {
			t.Errorf("status table lacks %q:\n%s", want, out)
		}
	}
}
