package client

import (
	"errors"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// TestReaddirBoundedByDeadlineUnderBlackhole is the resilience layer's
// acceptance bound: with one of three FMSes blackholed mid-run, a fanned-out
// readdir must come back within the configured per-attempt deadline budget
// (here: one attempt, no retries) instead of hanging forever.
func TestReaddirBoundedByDeadlineUnderBlackhole(t *testing.T) {
	n, cfg := testCluster(t, 3)
	seed := dialTest(t, cfg)
	if err := seed.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"a", "b", "c", "d", "e", "f"} {
		if err := seed.Create("/d/"+f, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Healthy baseline.
	if ents, err := seed.Readdir("/d"); err != nil || len(ents) != 6 {
		t.Fatalf("healthy readdir = %d entries, %v", len(ents), err)
	}

	const deadline = 60 * time.Millisecond
	c := dialTest(t, cfg, WithOpTimeout(deadline), WithRetry(RetryPolicy{Max: -1}))
	if _, err := c.StatDir("/d"); err != nil { // warm the dir cache
		t.Fatal(err)
	}
	n.SetFault("fms-1", netsim.FaultConfig{Blackhole: true})
	t0 := time.Now()
	_, err := c.Readdir("/d")
	wall := time.Since(t0)
	if err == nil {
		t.Fatal("readdir with a blackholed FMS succeeded")
	}
	if wire.StatusOf(err) != wire.StatusDeadline {
		t.Errorf("readdir err = %v, want deadline", err)
	}
	if !errors.Is(err, wire.StatusDeadline.Err()) {
		t.Errorf("errors.Is(err, deadline sentinel) = false for %v", err)
	}
	if wall > 10*deadline {
		t.Errorf("readdir took %v with a %v deadline — not bounded", wall, deadline)
	}
	// Recovery: clearing the fault makes the same client whole again.
	n.ClearFault("fms-1")
	if ents, err := c.Readdir("/d"); err != nil || len(ents) != 6 {
		t.Errorf("readdir after recovery = %d entries, %v", len(ents), err)
	}
}

// TestIdempotentRetrySurvivesDrop: a dropped request message costs one
// deadline expiry; the automatic retry re-sends and the read succeeds.
func TestIdempotentRetrySurvivesDrop(t *testing.T) {
	n, cfg := testCluster(t, 1)
	seed := dialTest(t, cfg)
	if err := seed.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := seed.Create("/d/f", 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	cfg.Obs = &obs.Handle{Reg: reg}
	c := dialTest(t, cfg,
		WithOpTimeout(40*time.Millisecond),
		WithRetry(RetryPolicy{Max: 2, Base: time.Millisecond}))
	if _, err := c.StatDir("/d"); err != nil { // warm the dir cache
		t.Fatal(err)
	}
	n.SetFault("fms-0", netsim.FaultConfig{DropRequests: 1})
	if _, err := c.StatFile("/d/f"); err != nil {
		t.Fatalf("stat with one dropped request: %v", err)
	}
	if got := testCounter(reg, MetricRetries); got < 1 {
		t.Errorf("retries counter = %d, want >= 1", got)
	}
	if got := testCounter(reg, MetricDeadlines); got < 1 {
		t.Errorf("deadline counter = %d, want >= 1", got)
	}
}

// TestCreateRetryIsAtMostOnce is the dedup acceptance check: the response
// to a Create is dropped, the client retries under the same request id, the
// FMS's dedup window replays the first execution — the retried call
// succeeds and exactly one file exists.
func TestCreateRetryIsAtMostOnce(t *testing.T) {
	n, cfg := testCluster(t, 1)
	c := dialTest(t, cfg,
		WithOpTimeout(40*time.Millisecond),
		WithRetry(RetryPolicy{Max: 2, Base: time.Millisecond}))
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StatDir("/d"); err != nil { // warm the dir cache
		t.Fatal(err)
	}
	n.SetFault("fms-0", netsim.FaultConfig{DropResponses: 1})
	if err := c.Create("/d/f", 0o644); err != nil {
		t.Fatalf("retried create failed: %v (without dedup this would be EEXIST)", err)
	}
	n.ClearFault("fms-0")
	ents, err := c.Readdir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "f" {
		t.Fatalf("directory after retried create = %v, want exactly [f]", ents)
	}
}

// TestBreakerFastFailAndHalfOpenRecovery: after the deadline trips the
// breaker, calls fail fast with EUNAVAIL instead of burning the deadline;
// once the cooldown elapses and the server is healthy again, the half-open
// probe closes the circuit and traffic resumes.
func TestBreakerFastFailAndHalfOpenRecovery(t *testing.T) {
	n, cfg := testCluster(t, 1)
	seed := dialTest(t, cfg)
	if err := seed.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := seed.Create("/d/f", 0o644); err != nil {
		t.Fatal(err)
	}

	const deadline = 25 * time.Millisecond
	reg := telemetry.NewRegistry()
	cfg.Obs = &obs.Handle{Reg: reg}
	c := dialTest(t, cfg,
		WithOpTimeout(deadline),
		WithRetry(RetryPolicy{Max: -1}),
		WithBreaker(BreakerConfig{Threshold: 1, Cooldown: 80 * time.Millisecond}))
	if _, err := c.StatDir("/d"); err != nil { // warm the dir cache
		t.Fatal(err)
	}
	n.SetFault("fms-0", netsim.FaultConfig{Blackhole: true})

	// First call burns the deadline and trips the breaker.
	if _, err := c.StatFile("/d/f"); wire.StatusOf(err) != wire.StatusDeadline {
		t.Fatalf("first stat err = %v, want deadline", err)
	}
	// Subsequent calls fail fast — EUNAVAIL well inside the deadline.
	t0 := time.Now()
	_, err := c.StatFile("/d/f")
	if wall := time.Since(t0); wall > deadline {
		t.Errorf("fast-fail took %v, want < %v", wall, deadline)
	}
	if !errors.Is(err, wire.StatusUnavailable.Err()) {
		t.Errorf("fast-fail err = %v, want EUNAVAIL", err)
	}
	if got := testCounter(reg, MetricFastFails); got < 1 {
		t.Errorf("fastfail counter = %d, want >= 1", got)
	}

	// Server heals; after the cooldown the half-open probe recovers.
	n.ClearFault("fms-0")
	time.Sleep(120 * time.Millisecond)
	if _, err := c.StatFile("/d/f"); err != nil {
		t.Fatalf("stat after recovery: %v", err)
	}
	// And the circuit stays closed.
	if _, err := c.StatFile("/d/f"); err != nil {
		t.Fatalf("stat after probe closed the circuit: %v", err)
	}
}

// TestDisconnectMidCallIsTransparent: an injected connection reset during a
// call is absorbed by the default policy's transparent reconnect-retry.
func TestDisconnectMidCallIsTransparent(t *testing.T) {
	n, cfg := testCluster(t, 1)
	c := dialTest(t, cfg)
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/d/f", 0o644); err != nil {
		t.Fatal(err)
	}
	n.SetFault("fms-0", netsim.FaultConfig{DisconnectAfter: 1})
	if _, err := c.StatFile("/d/f"); err != nil {
		t.Fatalf("stat across injected disconnect: %v", err)
	}
}

// testCounter sums one client counter metric across its op labels.
func testCounter(reg *telemetry.Registry, name string) uint64 {
	var n uint64
	for _, m := range reg.Snapshot().Metrics {
		if m.Kind == telemetry.KindCounter && m.Name == name {
			n += uint64(m.Value)
		}
	}
	return n
}
