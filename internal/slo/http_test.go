package slo_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"locofs/internal/obs"
	"locofs/internal/slo"
	"locofs/internal/telemetry"
)

// TestStatusHandlerAndFetch: a status served at /debug/slo scrapes back
// intact through an HTTP status source, and a dead endpoint fails the fetch.
func TestStatusHandlerAndFetch(t *testing.T) {
	p := obs.New(obs.Config{Name: "oss-0"})
	h := p.For("oss-0", obs.Export{})
	w := h.Reg.Windowed(slo.MetricService, telemetry.L("op", "PutBlock"))
	for i := 0; i < 10; i++ {
		w.Record(time.Millisecond)
	}
	srv := httptest.NewServer(p.Admin(h, nil, func() uint64 { return 2 }, nil, nil))
	defer srv.Close()

	st, err := obs.HTTPSource("oss-0", srv.URL+"/debug/slo", 0).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Server != "oss-0" || st.MapVer != 2 || len(st.Service) != 1 {
		t.Fatalf("fetched status = %+v", st)
	}

	if _, err := obs.HTTPSource("dead", "http://127.0.0.1:1/debug/slo", 0).Fetch(); err == nil {
		t.Error("fetch from dead endpoint did not error")
	}
}
