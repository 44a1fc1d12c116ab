package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locofs/internal/slo"
	"locofs/internal/trace"
)

// TestRecorderAnomalyTriggersBundle: one poll that fires a rule captures
// exactly one bundle holding the correlated events, the anomaly state, the
// status feed, the Extra sections and a goroutine profile.
func TestRecorderAnomalyTriggersBundle(t *testing.T) {
	clk := newFakeClock()
	p := New(Config{
		Name:   "test",
		Now:    clk.now,
		Status: func() *slo.ServerStatus { return &slo.ServerStatus{Server: "test"} },
		Extra:  func() map[string]any { return map[string]any{"note": "hello"} },
	})
	j := p.Journal
	for i := 0; i < 3; i++ {
		j.Emit(KindBreaker, "client", "", 0, 0, "fms-0 open")
	}
	fired := p.Poll()
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want one", fired)
	}
	if p.Captures() != 1 {
		t.Fatalf("Captures = %d, want 1", p.Captures())
	}
	b := p.LastBundle()
	if b == nil {
		t.Fatal("no bundle after trigger")
	}
	if b.Reason != "breaker-flap" || b.Server != "test" {
		t.Errorf("bundle identity: reason %q server %q", b.Reason, b.Server)
	}
	if got := len(b.EventsOfKind(KindBreaker)); got != 3 {
		t.Errorf("bundle breaker events = %d, want 3", got)
	}
	if len(b.Anomalies) != 1 || b.Anomalies[0].Rule != "breaker-flap" {
		t.Errorf("bundle anomalies = %+v", b.Anomalies)
	}
	if b.Status == nil || b.Status.Server != "test" {
		t.Errorf("bundle status = %+v", b.Status)
	}
	if b.Extra["note"] != "hello" {
		t.Errorf("bundle extra = %+v", b.Extra)
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Error("bundle goroutine profile empty")
	}
	// The capture itself lands in the journal, correlated by kind.
	if j.KindCounts()["bundle"] != 1 || j.KindCounts()["anomaly"] != 1 {
		t.Errorf("journal counts = %v, want one bundle + one anomaly", j.KindCounts())
	}
}

func TestRecorderRateLimitsAnomalyCaptures(t *testing.T) {
	clk := newFakeClock()
	p := New(Config{Name: "test", Now: clk.now})
	j := p.Journal
	// Two different rules, so the second firing is not cooldown-suppressed:
	// only the bundle gap should hold its capture back.
	for i := 0; i < 3; i++ {
		j.Emit(KindBreaker, "client", "", 0, 0, "open")
	}
	p.Poll()
	if p.Captures() != 1 {
		t.Fatalf("Captures after first trigger = %d, want 1", p.Captures())
	}
	// recall-storm fires 1s later: inside the gap, no second bundle.
	clk.advance(time.Second)
	for i := 0; i < 256; i++ {
		j.Emit(KindLeaseRecall, "dms", "", 0, int64(i), "/d")
	}
	fired := p.Poll()
	if len(fired) != 1 || fired[0].Rule != "recall-storm" {
		t.Fatalf("fired = %v, want recall-storm", fired)
	}
	if p.Captures() != 1 {
		t.Fatalf("Captures inside gap = %d, want still 1", p.Captures())
	}
	// Manual capture is never rate-limited.
	if b := p.Capture("operator"); b == nil || b.Reason != "operator" {
		t.Fatalf("manual capture = %+v", b)
	}
	if p.Captures() != 2 {
		t.Fatalf("Captures after manual = %d, want 2", p.Captures())
	}
}

func TestRecorderSpoolsBundlesToDisk(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{Name: "test", Dir: dir})
	p.Journal.Emit(KindEpoch, "dms", "", 0, 2, "")
	b := p.Capture("manual")
	if b.File == "" {
		t.Fatal("bundle not spooled: File empty")
	}
	data, err := os.ReadFile(b.File)
	if err != nil {
		t.Fatal(err)
	}
	var round Bundle
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("spooled bundle not valid JSON: %v", err)
	}
	if round.Server != "test" || round.Reason != "manual" || len(round.EventsOfKind(KindEpoch)) != 1 {
		t.Errorf("round-tripped bundle = %+v", round)
	}
	if filepath.Dir(b.File) != dir {
		t.Errorf("bundle spooled to %s, want under %s", b.File, dir)
	}
}

func TestRecorderBoundsBundleRetention(t *testing.T) {
	p := New(Config{Name: "test"})
	for i := 0; i < bundleKeep+3; i++ {
		p.Capture("manual")
	}
	if got := len(p.bundles); got != bundleKeep {
		t.Fatalf("retained bundles = %d, want %d", got, bundleKeep)
	}
	if p.Captures() != bundleKeep+3 {
		t.Fatalf("Captures = %d, want %d", p.Captures(), bundleKeep+3)
	}
}

func TestRecorderBundleKeepsErrorSpans(t *testing.T) {
	tr := trace.New(trace.Config{Sample: 1, BufSpans: 32})
	sp := tr.StartSpan(1, 0, "stat", "client")
	sp.SetStatus("EIO")
	sp.Finish()
	ok := tr.StartSpan(2, 0, "stat", "client")
	ok.Finish()
	b := New(Config{Name: "test", Tracer: tr}).Capture("manual")
	errSpans := b.ErrorSpans()
	if len(errSpans) != 1 || errSpans[0].Status != "EIO" {
		t.Fatalf("error spans = %+v, want the one EIO span", errSpans)
	}
	if len(b.Spans) < 2 {
		t.Fatalf("bundle spans = %d, want both", len(b.Spans))
	}
}

// TestBundleSpanSubMatchesTraces: a batch envelope with two sub-requests
// renders in a bundle the way /debug/traces renders it — "sub" present on
// the two sub-request spans (0 included) and absent on the envelope. The
// parent commit spooled "sub": -1 on every ordinary span and dropped
// sub-request 0's index.
func TestBundleSpanSubMatchesTraces(t *testing.T) {
	tr := trace.New(trace.Config{Sample: 1})
	batch := tr.StartSpan(9, 0, "Batch", "dms")
	for i, name := range []string{"LookupDir", "ReaddirSubdirs"} {
		sub := batch.StartChild(name)
		sub.SetSub(i)
		sub.Finish()
	}
	batch.Finish()
	data, err := json.Marshal(New(Config{Name: "dms", Tracer: tr}).Capture("manual"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Spans []map[string]any `json:"spans"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	got := map[string]any{}
	for _, sp := range b.Spans {
		got[sp["name"].(string)] = sp["sub"]
	}
	want := map[string]any{"Batch": nil, "LookupDir": 0.0, "ReaddirSubdirs": 1.0}
	for name, sub := range want {
		if got[name] != sub {
			t.Errorf("span %s: sub = %v, want %v (spans %v)", name, got[name], sub, b.Spans)
		}
	}
}

func TestRecorderRegisterMetrics(t *testing.T) {
	p := New(Config{Name: "test"})
	for i := 0; i < 3; i++ {
		p.Journal.Emit(KindBreaker, "client", "", 0, 0, "open")
	}
	p.Poll()
	vals := map[string]float64{}
	for _, m := range p.Reg.Snapshot().Metrics {
		vals[m.Name] += m.Value
	}
	if vals[MetricAnomalies] != 1 {
		t.Errorf("%s = %v, want 1", MetricAnomalies, vals[MetricAnomalies])
	}
	if vals[MetricBundles] != 1 {
		t.Errorf("%s = %v, want 1", MetricBundles, vals[MetricBundles])
	}
	// Three breaker transitions, the anomaly and the bundle.
	if vals[MetricEvents] != 5 {
		t.Errorf("%s = %v, want 5", MetricEvents, vals[MetricEvents])
	}
	// The process-wide series ride on the handle named like the process and
	// on no other.
	if reg := p.For("test", Export{}).Reg; reg != p.Reg {
		t.Error("the process's own handle does not share its registry")
	}
	for _, m := range p.For("fms-0", Export{}).Reg.Snapshot().Metrics {
		if strings.HasPrefix(m.Name, "locofs_flight_") {
			t.Errorf("server handle exports %s", m.Name)
		}
	}
}

func TestRecorderStartCloseIdempotent(t *testing.T) {
	p := New(Config{Name: "test"})
	p.Start()
	p.Start()
	p.Close()
	p.Close()
}
