package obs

import (
	"strings"
	"testing"
	"time"

	"locofs/internal/slo"
)

// fakeClock is a hand-advanced recorder/journal clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// sloFeed is a status feed carrying the given class statuses.
func sloFeed(classes func() []slo.ClassStatus) func() *slo.ServerStatus {
	return func() *slo.ServerStatus { return &slo.ServerStatus{Server: "test", SLO: classes()} }
}

func TestEventRateRuleFiresAndCoolsDown(t *testing.T) {
	clk := newFakeClock()
	p := New(Config{Name: "test", Now: clk.now})
	j := p.Journal

	// Two breaker events in the window: below breaker-flap's threshold.
	j.Emit(KindBreaker, "client", "", 0, 0, "fms-0 open")
	j.Emit(KindBreaker, "client", "", 0, 0, "fms-0 half-open")
	if fired := p.Poll(); len(fired) != 0 {
		t.Fatalf("fired below threshold: %v", fired)
	}

	// Third event crosses it.
	j.Emit(KindBreaker, "client", "", 0, 0, "fms-0 open")
	fired := p.Poll()
	if len(fired) != 1 || fired[0].Rule != "breaker-flap" {
		t.Fatalf("fired = %v, want one breaker-flap", fired)
	}
	if fired[0].Seq == 0 || fired[0].AtNS != clk.now().UnixNano() {
		t.Errorf("anomaly not stamped: %+v", fired[0])
	}
	// The firing itself is journaled.
	if got := j.KindCounts()["anomaly"]; got != 1 {
		t.Errorf("KindAnomaly events = %d, want 1", got)
	}

	// Within cooldown the rule stays silent even though the condition holds.
	clk.advance(5 * time.Second)
	j.Emit(KindBreaker, "client", "", 0, 0, "fms-0 open")
	if fired := p.Poll(); len(fired) != 0 {
		t.Fatalf("fired inside cooldown: %v", fired)
	}

	// Past cooldown, with fresh events inside the rate window, it refires.
	clk.advance(40 * time.Second)
	for i := 0; i < 3; i++ {
		j.Emit(KindBreaker, "client", "", 0, 0, "fms-1 open")
	}
	if fired := p.Poll(); len(fired) != 1 {
		t.Fatalf("did not refire after cooldown: %v", fired)
	}

	// State carries both firings of the one rule.
	st := p.AnomalyState()
	if len(st) != 1 || st[0].Rule != "breaker-flap" || st[0].Count != 2 || st[0].Source != "test" {
		t.Fatalf("AnomalyState = %+v", st)
	}
}

func TestEventRateRuleIgnoresEventsOutsideWindow(t *testing.T) {
	clk := newFakeClock()
	p := New(Config{Name: "test", Now: clk.now})
	for i := 0; i < 5; i++ {
		p.Journal.Emit(KindBreaker, "client", "", 0, int64(i), "fms-0 open")
	}
	// All five transitions age out of the rate window.
	clk.advance(time.Minute)
	if fired := p.Poll(); len(fired) != 0 {
		t.Fatalf("stale events fired the rule: %v", fired)
	}
}

func TestBurnRateRule(t *testing.T) {
	clk := newFakeClock()
	burn := 0.5
	p := New(Config{Name: "test", Now: clk.now, Status: sloFeed(func() []slo.ClassStatus {
		return []slo.ClassStatus{{Class: "md_read", Metric: "m", WindowCount: 100, BurnRate: burn}}
	})})
	if fired := p.Poll(); len(fired) != 0 {
		t.Fatalf("fired at burn 0.5: %v", fired)
	}
	burn = 3
	fired := p.Poll()
	if len(fired) != 1 || fired[0].Rule != "burn-spike" || !strings.Contains(fired[0].Detail, "md_read") {
		t.Fatalf("fired = %v, want md_read burn spike", fired)
	}
}

func TestBurnRateRuleRespectsMinCount(t *testing.T) {
	clk := newFakeClock()
	p := New(Config{Name: "test", Now: clk.now, Status: sloFeed(func() []slo.ClassStatus {
		// Burning hot but on 3 samples: too little traffic to trust.
		return []slo.ClassStatus{{Class: "md_read", WindowCount: 3, BurnRate: 100}}
	})})
	if fired := p.Poll(); len(fired) != 0 {
		t.Fatalf("fired below MinCount: %v", fired)
	}
}

func TestP99StepRule(t *testing.T) {
	clk := newFakeClock()
	p99 := 0.001
	p := New(Config{Name: "test", Now: clk.now, Status: sloFeed(func() []slo.ClassStatus {
		return []slo.ClassStatus{{
			Class: "md_read", Metric: "m", Percentile: 0.99,
			WindowCount: 100, WindowPSec: p99,
		}}
	})})
	// Build a baseline: the step rule needs history before it can compare.
	for i := 0; i < 6; i++ {
		if fired := p.Poll(); len(fired) != 0 {
			t.Fatalf("fired while flat at poll %d: %v", i, fired)
		}
		clk.advance(2 * time.Second)
	}
	// 1 ms -> 10 ms: a 10x step over the baseline median.
	p99 = 0.010
	fired := p.Poll()
	if len(fired) != 1 || fired[0].Rule != "p99-step" {
		t.Fatalf("fired = %v, want one p99-step", fired)
	}
	if !strings.Contains(fired[0].Detail, "baseline") {
		t.Errorf("detail lacks baseline context: %q", fired[0].Detail)
	}
}

func TestP99StepNeedsBaselineHistory(t *testing.T) {
	clk := newFakeClock()
	p99 := 0.001
	p := New(Config{Name: "test", Now: clk.now, Status: sloFeed(func() []slo.ClassStatus {
		return []slo.ClassStatus{{Class: "c", Metric: "m", WindowCount: 100, WindowPSec: p99}}
	})})
	p.Poll() // one poll of history — below p99BaselineMin
	p99 = 1.0
	if fired := p.Poll(); len(fired) != 0 {
		t.Fatalf("fired without enough baseline history: %v", fired)
	}
}

// TestOnTriggerRunsPerFiring: every firing journals one KindAnomaly event and
// captures one bundle named after its rule; a poll that fires nothing
// triggers nothing.
func TestOnTriggerRunsPerFiring(t *testing.T) {
	clk := newFakeClock()
	p := New(Config{Name: "test", Now: clk.now})
	j := p.Journal
	for i := 0; i < 3; i++ {
		j.Emit(KindBreaker, "client", "", 0, 0, "open")
	}
	if fired := p.Poll(); len(fired) != 1 || fired[0].Rule != "breaker-flap" {
		t.Fatalf("fired = %v, want one breaker-flap", fired)
	}
	// Inside the cooldown: no firing, so no anomaly event and no capture.
	if fired := p.Poll(); len(fired) != 0 {
		t.Fatalf("fired inside cooldown: %v", fired)
	}
	if got := j.KindCounts()["anomaly"]; got != 1 || p.Captures() != 1 {
		t.Fatalf("after one firing: anomaly events %d, captures %d; want 1, 1", got, p.Captures())
	}
	// A second rule past the bundle gap triggers its own capture.
	clk.advance(bundleGap + time.Second)
	for i := 0; i < 256; i++ {
		j.Emit(KindLeaseRecall, "dms", "", 0, int64(i), "/d")
	}
	if fired := p.Poll(); len(fired) != 1 || fired[0].Rule != "recall-storm" {
		t.Fatalf("fired = %v, want one recall-storm", fired)
	}
	if got := j.KindCounts()["anomaly"]; got != 2 || p.Captures() != 2 {
		t.Fatalf("after two firings: anomaly events %d, captures %d; want 2, 2", got, p.Captures())
	}
	if b := p.LastBundle(); b == nil || b.Reason != "recall-storm" {
		t.Fatalf("last bundle = %+v, want reason recall-storm", b)
	}
}

func TestDefaultRulesCoverTentpoleConditions(t *testing.T) {
	names := map[string]bool{}
	for _, r := range DefaultRules() {
		names[r.Name] = true
	}
	for _, want := range []string{"breaker-flap", "recall-storm", "burn-spike", "p99-step"} {
		if !names[want] {
			t.Errorf("default rule %s missing", want)
		}
	}
}
