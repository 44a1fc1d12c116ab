package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// adminOf is the admin surface of p, its own server named "test".
func adminOf(p *Process) http.Handler {
	return p.Admin(p.For(p.Name, Export{}), nil, nil, nil, nil)
}

func get(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

type eventsPage struct {
	Cur    uint64  `json:"cur"`
	Next   uint64  `json:"next"`
	Reset  bool    `json:"reset"`
	Events []Event `json:"events"`
}

func TestEventsHandlerPaging(t *testing.T) {
	p := New(Config{Name: "test"})
	for i := 0; i < 10; i++ {
		p.Journal.Emit(KindRetry, "client", "stat", uint64(i+1), int64(i), "fms-0")
	}
	h := adminOf(p)

	rec := get(t, h, "/debug/events?max=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var page eventsPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Cur != 10 || page.Next != 4 || len(page.Events) != 4 || page.Reset {
		t.Fatalf("first page = cur %d next %d n %d reset %v", page.Cur, page.Next, len(page.Events), page.Reset)
	}
	if page.Events[0].Seq != 1 || page.Events[0].Kind != KindRetry || page.Events[0].Trace != 1 {
		t.Fatalf("first event did not round-trip: %+v", page.Events[0])
	}

	// Resume from the returned cursor.
	rec = get(t, h, "/debug/events?since=4&max=100")
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 6 || page.Events[0].Seq != 5 || page.Next != 10 {
		t.Fatalf("second page = n %d first %d next %d", len(page.Events), page.Events[0].Seq, page.Next)
	}

	// Caught up: empty page, same cursor, still a JSON array (not null).
	rec = get(t, h, "/debug/events?since=10")
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 0 || page.Next != 10 {
		t.Fatalf("caught-up page = n %d next %d", len(page.Events), page.Next)
	}
}

func TestEventsHandlerReportsReset(t *testing.T) {
	p := New(Config{Name: "test"})
	for i := 0; i < journalCap+10; i++ {
		p.Journal.Emit(KindRetry, "client", "", 0, 0, "")
	}
	rec := get(t, adminOf(p), "/debug/events?since=1")
	var page eventsPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if !page.Reset {
		t.Fatal("overwritten range not flagged reset")
	}
}

func TestEventsHandlerRejectsBadParams(t *testing.T) {
	h := adminOf(New(Config{Name: "test"}))
	for _, target := range []string{
		"/debug/events?since=banana",
		"/debug/events?max=banana",
		"/debug/events?max=-1",
		"/debug/events?max=0",
		"/debug/traces?limit=0",
		"/debug/hot?n=x",
	} {
		rec := get(t, h, target)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", target, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: error Content-Type = %q", target, ct)
		}
	}
}

func TestEventsHandlerRejectsNonGET(t *testing.T) {
	h := adminOf(New(Config{Name: "test"}))
	for _, path := range []string{"/debug/events", "/metrics", "/debug/slo"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s status = %d, want 405", path, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow == "" {
			t.Fatalf("POST %s: 405 response missing Allow header", path)
		}
	}
}

func TestBundleHandler(t *testing.T) {
	p := New(Config{Name: "test"})
	h := adminOf(p)

	// No bundle yet: ?last=1 is a JSON 404.
	rec := get(t, h, "/debug/bundle?last=1")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("last with no bundle: status = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("404 Content-Type = %q", ct)
	}

	// Plain GET captures a fresh manual bundle.
	p.Journal.Emit(KindEpoch, "dms", "", 0, 3, "")
	rec = get(t, h, "/debug/bundle")
	if rec.Code != http.StatusOK {
		t.Fatalf("capture status = %d", rec.Code)
	}
	var b Bundle
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Reason != "manual" || len(b.EventsOfKind(KindEpoch)) != 1 {
		t.Fatalf("captured bundle = reason %q, epoch events %d", b.Reason, len(b.EventsOfKind(KindEpoch)))
	}
	// The bundle froze the status Admin named.
	if b.Status == nil || b.Status.Server != "test" {
		t.Fatalf("captured bundle status = %+v", b.Status)
	}
	if p.Captures() != 1 {
		t.Fatalf("Captures = %d, want 1", p.Captures())
	}

	// ?last=1 now returns it without capturing another.
	rec = get(t, h, "/debug/bundle?last=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("last status = %d", rec.Code)
	}
	if p.Captures() != 1 {
		t.Fatalf("last=1 captured a new bundle: Captures = %d", p.Captures())
	}

	// Bad query param.
	rec = get(t, h, "/debug/bundle?last=banana")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad last: status = %d, want 400", rec.Code)
	}

	// Method check.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/debug/bundle", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status = %d, want 405", rec.Code)
	}
}

// TestRoutesExposeBothEndpoints: every route the index advertises answers,
// the bare /debug/traces included, even with every feed empty.
func TestRoutesExposeBothEndpoints(t *testing.T) {
	h := adminOf(New(Config{Name: "test"}))
	for _, path := range []string{"/", "/metrics", "/debug/vars", "/debug/pprof/", "/debug/traces", "/debug/traces/",
		"/debug/hot", "/debug/slo", "/debug/cluster", "/debug/events", "/debug/bundle"} {
		if rec := get(t, h, path); rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d", path, rec.Code)
		}
	}
}
