package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// A comm holding spaces and parentheses must not shift the fields.
	line := "4242 (loco) fsd (x)) S 1 4242 4242 0 -1 4194560 1500 0 3 0 " +
		"731 269 0 0 20 0 9 0 123456 1234567890 2560 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseProcStat(line, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 * time.Second; got.CPU != want {
		t.Errorf("CPU = %v, want %v (utime 731 + stime 269 ticks)", got.CPU, want)
	}
	if want := int64(2560 * 4096); got.RSS != want {
		t.Errorf("RSS = %d, want %d", got.RSS, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13 14 15 16 17 18 19 20 21 22 23"} {
		if _, err := parseProcStat(bad, 4096); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestReadProcSelf(t *testing.T) {
	if _, err := readProc(1 << 30); err == nil {
		t.Error("readProc of a pid that cannot exist succeeded")
	}
}

const promText = `# TYPE locofs_rpc_requests_total counter
locofs_rpc_requests_total{op="Mkdir",server="dms"} 7
locofs_rpc_requests_total{op="StatFile",server="dms"} 5
# TYPE locofs_rpc_service_seconds histogram
locofs_rpc_service_seconds_bucket{op="Mkdir",server="dms",le="0.001"} 7
locofs_rpc_service_seconds_bucket{op="Mkdir",server="dms",le="+Inf"} 7
locofs_rpc_service_seconds_sum{op="Mkdir",server="dms"} 3.5e-05
locofs_rpc_service_seconds_count{op="Mkdir",server="dms"} 7
locofs_kv_bytes_total{dir="read",server="dms"} 100
locofs_kv_bytes_total{dir="written",server="dms"} 40
locofs_odd{path="a \"b\" \\ c,}"} 1
locofs_uptime_seconds 3.25
`

func TestParseProm(t *testing.T) {
	s, err := parseProm(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 10 {
		t.Fatalf("%d samples, want 10", len(s))
	}
	if got := promSum(s, "locofs_rpc_requests_total", nil); got != 12 {
		t.Errorf("requests = %v, want 12", got)
	}
	if got := promSum(s, "locofs_rpc_requests_total", map[string]string{"op": "Mkdir"}); got != 7 {
		t.Errorf("Mkdir requests = %v, want 7", got)
	}
	if got := promSum(s, "locofs_kv_bytes_total", map[string]string{"dir": "written"}); got != 40 {
		t.Errorf("bytes written = %v, want 40", got)
	}
	if got := promSum(s, "locofs_rpc_service_seconds_sum", nil); got != 3.5e-05 {
		t.Errorf("service sum = %v", got)
	}
	if got := promSum(s, "locofs_uptime_seconds", nil); got != 3.25 {
		t.Errorf("unlabeled value = %v", got)
	}
	if got := s[8].Labels["path"]; got != `a "b" \ c,}` {
		t.Errorf("escaped label = %q", got)
	}
	c := countersFrom(s)
	if c[cReqs] != 12 || c[cMutReqs] != 7 || c[cMutServiceS] != 3.5e-05 || c[cKVBytesWritten] != 40 {
		t.Errorf("countersFrom = %+v", c)
	}
	for _, bad := range []string{"name", "name{a=\"b\" 1", "name{a=b} 1", "name nope"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  496257 0 277239 705225 3206 0 80955 31382 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	got, err := parseSteal(stat)
	if err != nil || got != 31382*clockTick {
		t.Errorf("parseSteal = %v, %v; want %v", got, err, 31382*clockTick)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3 4 5 6 7", "cpu 1 2 3 4 5 6 7 x"} {
		if _, err := parseSteal(bad); err == nil {
			t.Errorf("parseSteal(%q) accepted", bad)
		}
	}
	if _, err := readSteal(); err != nil {
		t.Errorf("readSteal on this machine: %v", err)
	}
}
