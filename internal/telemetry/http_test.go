package telemetry_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"locofs/internal/obs"
	"locofs/internal/telemetry"
)

// admin is the admin surface of a process named "dms", whose own registry
// record fills in.
func admin(record func(reg *telemetry.Registry)) http.Handler {
	p := obs.New(obs.Config{Name: "dms"})
	h := p.For("dms", obs.Export{})
	if record != nil {
		record(h.Reg)
	}
	return p.Admin(h, nil, nil, nil, nil)
}

// scrape GETs path from the handler and returns the body.
func scrape(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	b, _ := io.ReadAll(rec.Body)
	return string(b)
}

// TestMetricsEndpoint: /metrics renders counters, gauges and histograms in
// the Prometheus text format, with the server base label stamped.
func TestMetricsEndpoint(t *testing.T) {
	body := scrape(t, admin(func(r *telemetry.Registry) {
		r.Counter("locofs_test_calls", telemetry.L("op", "Mkdir")).Add(3)
		r.Histogram("locofs_test_latency", telemetry.L("op", "Mkdir")).Record(2 * time.Millisecond)
		r.GaugeFunc("locofs_test_depth", func() float64 { return 7 }, telemetry.L("q", "rx"))
	}), "/metrics")
	for _, want := range []string{
		"# TYPE locofs_test_calls counter",
		`locofs_test_calls{op="Mkdir",server="dms"} 3`,
		"# TYPE locofs_test_depth gauge",
		`locofs_test_depth{q="rx",server="dms"} 7`,
		"# TYPE locofs_test_latency histogram",
		`locofs_test_latency_count{op="Mkdir",server="dms"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "locofs_test_latency_bucket") {
		t.Errorf("/metrics has no le buckets:\n%s", body)
	}
}

// TestDebugVarsAndIndex: /debug/vars serves expvar JSON and the index page
// lists the built-in routes.
func TestDebugVarsAndIndex(t *testing.T) {
	h := admin(nil)
	if body := scrape(t, h, "/debug/vars"); !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars missing memstats: %.120s", body)
	}
	if body := scrape(t, h, "/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index missing /metrics: %q", body)
	}
}

// TestHandlerWithExtraRoutes: the /debug routes share the mux with
// /metrics and are advertised on the index line; /debug/traces serves its
// subtree.
func TestHandlerWithExtraRoutes(t *testing.T) {
	h := admin(nil)
	if body := scrape(t, h, "/debug/hot"); strings.TrimSpace(body) != "[]" {
		t.Errorf("/debug/hot = %q", body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/0xabc", nil))
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "0xabc") {
		t.Errorf("subtree route = %d %q", rec.Code, rec.Body)
	}
	index := scrape(t, h, "/")
	if !strings.Contains(index, "/debug/hot") || !strings.Contains(index, "/debug/traces") {
		t.Errorf("index does not advertise the /debug routes: %q", index)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	srv := httptest.NewServer(admin(func(r *telemetry.Registry) {
		r.Counter("locofs_rpc_requests_total", telemetry.L("op", "Ping")).Inc()
	}))
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, `locofs_rpc_requests_total{op="Ping",server="dms"} 1`) {
		t.Errorf("metrics output:\n%s", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Error("pprof index missing goroutine profile")
	}
	if out := get("/debug/vars"); !strings.Contains(out, "memstats") {
		t.Error("expvar output missing memstats")
	}
}
