package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{-5, 0}, // clamped via Record, but bucketOf itself also maps <=0 to 0
		{1, 1},  // [1,2) ns
		{2, 2},  // [2,4) ns
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{time.Microsecond, 10}, // 1000 ns -> bits.Len64 = 10
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.bucket {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.bucket)
		}
	}
	for i := 1; i < 63; i++ {
		upper := BucketUpper(i)
		if bucketOf(upper-1) != i {
			t.Errorf("upper-1 of bucket %d classified as %d", i, bucketOf(upper-1))
		}
		if bucketOf(upper) != i+1 {
			t.Errorf("upper of bucket %d classified as %d, want %d", i, bucketOf(upper), i+1)
		}
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations spread over two decades: 1..100 µs.
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Max != 100*time.Microsecond {
		t.Errorf("max = %v, want 100µs", s.Max)
	}
	wantMean := 50500 * time.Nanosecond
	if s.Mean() != wantMean {
		t.Errorf("mean = %v, want %v", s.Mean(), wantMean)
	}
	// Log-bucket quantiles are estimates; assert the right bucket (factor
	// of 2) rather than exact values.
	p50 := s.Quantile(0.50)
	if p50 < 32*time.Microsecond || p50 > 128*time.Microsecond {
		t.Errorf("p50 = %v, not within the [32µs,128µs) bucket range", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 64*time.Microsecond || p99 > 100*time.Microsecond {
		t.Errorf("p99 = %v, want within [64µs, max]", p99)
	}
	if q := s.Quantile(1.0); q != s.Max {
		t.Errorf("p100 = %v, want max %v", q, s.Max)
	}
	var empty Histogram
	if empty.Snapshot().Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
}

func TestHistogramConcurrentRecording(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(i%1000+1) * time.Microsecond)
			}
		}(w)
	}
	// Concurrent snapshotting must be safe too.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", s.Count, workers*perWorker)
	}
	if s.Max != 1000*time.Microsecond {
		t.Errorf("max = %v, want 1ms", s.Max)
	}
}

func TestRegistryIdentityAndBaseLabels(t *testing.T) {
	r := NewRegistry(L("server", "dms"))
	c1 := r.Counter("reqs", L("op", "Mkdir"))
	c2 := r.Counter("reqs", L("op", "Mkdir"))
	if c1 != c2 {
		t.Error("same name+labels returned distinct counters")
	}
	c1.Add(3)
	r.Counter("reqs", L("op", "Rmdir")).Inc()
	r.Histogram("lat", L("op", "Mkdir")).Record(time.Millisecond)
	r.GaugeFunc("depth", func() float64 { return 7 })

	s := r.Snapshot()
	byKey := map[string]Metric{}
	for _, m := range s.Metrics {
		byKey[m.Name+m.Labels] = m
	}
	mk := byKey[`reqs{op="Mkdir",server="dms"}`]
	if mk.Value != 3 {
		t.Errorf("Mkdir counter = %v, want 3", mk.Value)
	}
	if g := byKey[`depth{server="dms"}`]; g.Value != 7 || g.Kind != KindGauge {
		t.Errorf("gauge = %+v", g)
	}
	h := byKey[`lat{op="Mkdir",server="dms"}`]
	if h.Kind != KindHistogram || h.Hist.Count != 1 {
		t.Errorf("histogram = %+v", h)
	}
}

func TestSnapshotPromAndOpTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("locofs_rpc_requests_total", L("op", "Mkdir")).Add(2)
	h := r.Histogram("locofs_client_rtt_seconds", L("op", "Mkdir"))
	h.Record(10 * time.Microsecond)
	h.Record(20 * time.Microsecond)

	var sb strings.Builder
	if err := r.Snapshot().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE locofs_rpc_requests_total counter",
		`locofs_rpc_requests_total{op="Mkdir"} 2`,
		"# TYPE locofs_client_rtt_seconds histogram",
		`locofs_client_rtt_seconds_count{op="Mkdir"} 2`,
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}

	rows := r.Snapshot().OpTable("locofs_client_rtt_seconds")
	if len(rows) != 1 || rows[0].Op != "Mkdir" || rows[0].Count != 2 {
		t.Fatalf("OpTable = %+v", rows)
	}
	if rows[0].Max != 20*time.Microsecond {
		t.Errorf("row max = %v", rows[0].Max)
	}
}

// TestUnregisterStopsLabelLeak: a gauge unregistered after its owner shuts
// down must disappear from subsequent snapshots, while other kinds under
// different keys stay.
func TestUnregisterStopsLabelLeak(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", func() float64 { return 1 }, L("client", "1"))
	r.GaugeFunc("g", func() float64 { return 2 }, L("client", "2"))
	r.Counter("c").Inc()
	if !r.Unregister("g", L("client", "1")) {
		t.Fatal("Unregister reported nothing removed")
	}
	if r.Unregister("g", L("client", "1")) {
		t.Fatal("second Unregister reported a removal")
	}
	s := r.Snapshot()
	if len(s.Metrics) != 2 {
		t.Fatalf("snapshot = %+v, want g{client=2} and c only", s.Metrics)
	}
	for _, m := range s.Metrics {
		if m.Name == "g" && strings.Contains(m.Labels, `"1"`) {
			t.Errorf("unregistered gauge still present: %+v", m)
		}
	}
}

// TestUnregisterAllKinds: Unregister removes counters and histograms too.
func TestUnregisterAllKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Histogram("x").Record(time.Millisecond)
	if !r.Unregister("x") {
		t.Fatal("Unregister(x) removed nothing")
	}
	if n := len(r.Snapshot().Metrics); n != 0 {
		t.Fatalf("%d metrics left after Unregister", n)
	}
}

// TestReset: Reset returns the registry to empty while keeping base labels
// on metrics registered afterwards.
func TestReset(t *testing.T) {
	r := NewRegistry(L("server", "fms-0"))
	r.Counter("a").Inc()
	r.Histogram("b").Record(time.Second)
	r.GaugeFunc("c", func() float64 { return 1 })
	r.Reset()
	if n := len(r.Snapshot().Metrics); n != 0 {
		t.Fatalf("%d metrics left after Reset", n)
	}
	r.Counter("a").Add(5)
	s := r.Snapshot()
	if len(s.Metrics) != 1 || s.Metrics[0].Value != 5 ||
		!strings.Contains(s.Metrics[0].Labels, `server="fms-0"`) {
		t.Fatalf("post-Reset counter = %+v, want fresh a=5 with base label", s.Metrics)
	}
}
