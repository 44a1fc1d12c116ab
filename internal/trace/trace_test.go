package trace

import (
	"testing"
	"time"

	"locofs/internal/telemetry"
)

func TestSpanTreeAssembly(t *testing.T) {
	tr := New(Config{Sample: 1})
	root := tr.StartSpan(42, 0, "Readdir", "client")
	c1 := root.StartChild("ReaddirSubdirs")
	c1.Annotate("addr=dms")
	g1 := tr.StartSpan(42, c1.ID(), "ReaddirSubdirs", "dms")
	g1.Finish()
	c1.Finish()
	c2 := root.StartChild("ReaddirFiles")
	c2.SetSub(1)
	c2.Finish()
	root.Finish()
	// A span from another trace must not leak in.
	other := tr.StartSpan(7, 0, "Mkdir", "client")
	other.Finish()

	spans := tr.Trace(42)
	if len(spans) != 4 {
		t.Fatalf("Trace(42) = %d spans, want 4", len(spans))
	}
	roots := tr.Tree(42)
	if len(roots) != 1 || roots[0].Span.Name != "Readdir" {
		t.Fatalf("Tree(42) roots = %+v, want single Readdir root", roots)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(roots[0].Children))
	}
	rpc := roots[0].Children[0]
	if len(rpc.Children) != 1 || rpc.Children[0].Span.Server != "dms" {
		t.Fatalf("server child not linked under rpc span: %+v", rpc.Children)
	}
	if got := roots[0].Children[1].Span.Sub; got != 1 {
		t.Errorf("Sub = %d, want 1", got)
	}
}

func TestSamplingDeterministicAcrossTracers(t *testing.T) {
	// Two tracers (two processes) must reach identical keep/drop decisions
	// per trace ID, so sampled trees arrive complete.
	a := New(Config{Sample: 0.25, Slow: -1})
	b := New(Config{Sample: 0.25, Slow: -1})
	kept := 0
	for id := uint64(1); id <= 2000; id++ {
		if a.sampled(id) != b.sampled(id) {
			t.Fatalf("divergent sampling decision for trace %d", id)
		}
		if a.sampled(id) {
			kept++
		}
	}
	if kept < 350 || kept > 650 {
		t.Errorf("sample=0.25 kept %d/2000 traces, want ~500", kept)
	}
}

func TestSlowAndErrorSpansAlwaysKept(t *testing.T) {
	// Sampling probability is astronomically small, so probabilistic
	// retention effectively never fires; slow and error spans must land in
	// the ring anyway.
	tr := New(Config{Sample: 1e-18, Slow: time.Nanosecond})
	slow := tr.StartSpan(1, 0, "Slow", "srv")
	time.Sleep(time.Millisecond)
	slow.Finish()
	errSpan := tr.StartSpan(2, 0, "Err", "srv")
	errSpan.SetStatus("EIO")
	errSpan.Finish()
	if len(tr.Trace(1)) != 1 {
		t.Error("slow span was not retained")
	}
	if len(tr.Trace(2)) != 1 {
		t.Error("error span was not retained")
	}

	// With the slow force-keep disabled and the same tiny probability, a
	// fast OK span is dropped.
	tr2 := New(Config{Sample: 1e-18, Slow: -1})
	ok := tr2.StartSpan(3, 0, "Fast", "srv")
	ok.Finish()
	if n := len(tr2.Spans()); n != 0 {
		t.Errorf("fast OK span retained (%d spans) despite ~0 sample", n)
	}
}

func TestRingWraps(t *testing.T) {
	tr := New(Config{Sample: 1, BufSpans: 8})
	for i := 0; i < 100; i++ {
		tr.StartSpan(uint64(i), 0, "op", "srv").Finish()
	}
	if got := len(tr.Spans()); got != 8 {
		t.Errorf("ring holds %d spans, want 8", got)
	}
	if tr.Recorded() != 100 {
		t.Errorf("Recorded = %d, want 100", tr.Recorded())
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.StartSpan(1, 0, "op", "srv")
	sp.Annotate("cache=hit")
	sp.SetStatus("EIO")
	sp.SetSub(3)
	child := sp.StartChild("child")
	child.Finish()
	sp.Finish()
	if sp.ID() != 0 || child != nil {
		t.Error("nil span produced non-nil results")
	}
	if tr.Spans() != nil || tr.Recorded() != 0 {
		t.Error("nil tracer retained spans")
	}
	if New(Config{Sample: 0}) != nil {
		t.Error("New(Sample=0) did not return the nil (disabled) tracer")
	}
}

// TestDisabledTracerAllocs guards the acceptance criterion that tracing
// disabled adds no allocation on the hot path: the full span lifecycle on a
// nil tracer must be allocation-free.
func TestDisabledTracerAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan(99, 0, "CreateFile", "client")
		child := sp.StartChild("rpc")
		child.Annotate("retry=1")
		child.Finish()
		sp.SetStatus("")
		sp.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f objects per op, want 0", allocs)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(uint64(i), 0, "CreateFile", "client")
		child := sp.StartChild("rpc")
		child.Finish()
		sp.Finish()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(Config{Sample: 1, BufSpans: 1 << 14})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(uint64(i), 0, "CreateFile", "client")
		child := sp.StartChild("rpc")
		child.Finish()
		sp.Finish()
	}
}

func TestRingDropAndEvictCounters(t *testing.T) {
	// Sample ~nothing: every unsampled fast span must count as dropped.
	tr := New(Config{Sample: 1e-12, Slow: -1, BufSpans: 4})
	for i := 0; i < 50; i++ {
		tr.StartSpan(uint64(1000+i), 0, "Mkdir", "dms").Finish()
	}
	if d := tr.Dropped(); d < 45 {
		t.Fatalf("Dropped() = %d, want ~50 (sampling loss must be counted)", d)
	}

	// Keep everything into a 4-slot ring: 10 spans retained, 6 evicted.
	tr2 := New(Config{Sample: 1, BufSpans: 4})
	for i := 0; i < 10; i++ {
		tr2.StartSpan(uint64(i), 0, "Mkdir", "dms").Finish()
	}
	if e := tr2.Evicted(); e != 6 {
		t.Fatalf("Evicted() = %d, want 6", e)
	}
	if tr2.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0 with Sample=1", tr2.Dropped())
	}

	// Nil tracer: zero everywhere, and metric registration still works.
	var nilT *Tracer
	if nilT.Dropped() != 0 || nilT.Evicted() != 0 {
		t.Fatal("nil tracer counters not zero")
	}
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg, tr2)
	var found bool
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == MetricSpansEvicted && m.Value == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("evicted gauge not exported")
	}
}
