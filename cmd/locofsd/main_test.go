package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"locofs/internal/client"
	"locofs/internal/core"
	"locofs/internal/dms"
	"locofs/internal/dms/partition"
	"locofs/internal/fms"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/slo"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
)

// TestParsePeers: every accepted -peers spelling ends up a named URL with a
// path. The https rows fail at the parent commit, which only knew how to
// look past "http://" when deciding whether a URL already had a path, so an
// https peer never gained /debug/slo and the status role scraped "/".
func TestParsePeers(t *testing.T) {
	got := parsePeers("dms=host:9100, http://h:1, fms=https://h:2, https://h:3/debug/slo, x=http://h:4/custom,")
	want := []peer{
		{"dms", "http://host:9100/debug/slo"},
		{"http://h:1", "http://h:1/debug/slo"},
		{"fms", "https://h:2/debug/slo"},
		{"https://h:3/debug/slo", "https://h:3/debug/slo"},
		{"x", "http://h:4/custom"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsePeers =\n %v, want\n %v", got, want)
	}
}

// TestClientConfigSplitsLists: -fms and -oss go through splitList like
// -dms-groups and -dms-cuts. The parent commit used strings.Split, so
// `-fms "a:1, b:2"` kept the blank and the second dial failed.
func TestClientConfigSplitsLists(t *testing.T) {
	cfg := clientConfig("d:1", "a:1, b:2", " o:1 ,", nil)
	if want := []string{"a:1", "b:2"}; !reflect.DeepEqual(cfg.FMSAddrs, want) {
		t.Errorf("FMSAddrs = %q, want %q", cfg.FMSAddrs, want)
	}
	if want := []string{"o:1"}; !reflect.DeepEqual(cfg.OSSAddrs, want) {
		t.Errorf("OSSAddrs = %q, want %q", cfg.OSSAddrs, want)
	}
}

// role is one server role brought up the way serve does it, minus the
// signal wait.
type role struct {
	addr   string
	h      *obs.Handle
	routes map[string]http.Handler
}

// startRole assembles a role's observability through adminFlags.observe —
// the path main takes — builds its component over a fresh store, and serves
// it on a loopback TCP port.
func startRole(t *testing.T, name string, store *kv.Instrumented, build func(h *obs.Handle) (attach func(*rpc.Server), hot *trace.TopK)) role {
	t.Helper()
	p, h := adminFlags{}.observe(name, obs.Export{Objectives: slo.ServerObjectives(), Store: store})
	attach, hot := build(h)
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := rpc.New(rpc.Config{Obs: h})
	routes := p.Admin(h, slo.ServerObjectives(), rs.MapVer, hot, nil)
	attach(rs)
	go rs.Serve(l)
	t.Cleanup(rs.Shutdown)
	return role{l.Addr(), h, routes}
}

func startDMS(t *testing.T) role {
	store := kv.Instrument(kv.NewBTreeStore(), kv.RAM)
	return startRole(t, "dms", store, func(h *obs.Handle) (func(*rpc.Server), *trace.TopK) {
		d := dms.New(dms.Options{Store: store, CheckPermissions: true, Obs: h})
		n := partition.New(partition.Config{DMS: d, Dialer: netsim.TCPDialer{}, Obs: h})
		t.Cleanup(n.Close)
		return n.Attach, d.HotKeys()
	})
}

func startFMS(t *testing.T) role {
	store := kv.Instrument(kv.NewHashStore(), kv.RAM)
	return startRole(t, "fms-1", store, func(h *obs.Handle) (func(*rpc.Server), *trace.TopK) {
		f := fms.New(fms.Options{Store: store, ServerID: 1, CheckPermissions: true, Obs: h})
		return f.Attach, f.HotKeys()
	})
}

func startOSS(t *testing.T) role {
	store := kv.Instrument(kv.NewHashStore(), kv.RAM)
	return startRole(t, "oss", store, func(*obs.Handle) (func(*rpc.Server), *trace.TopK) {
		return objstore.New(store).Attach, nil
	})
}

// scrape GETs path from the role's admin surface, as served under
// -metrics-addr.
func (r role) scrape(t *testing.T, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	telemetry.HandlerWith(r.routes, r.h.Reg).ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.String()
}

// promSum adds up the samples of one series name in Prometheus text whose
// label set contains every given `k="v"` pair, the way the benchmark's
// ledger reads a daemon's /metrics; found reports whether any matched.
func promSum(text, name string, labels ...string) (sum float64, found bool) {
sample:
	for _, line := range strings.Split(text, "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if n, _, _ := strings.Cut(series, "{"); n != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(series, l) {
				continue sample
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		sum, found = sum+v, true
	}
	return sum, found
}

// TestBenchmarkMetricsContract: the wall-clock benchmark reads these series
// from each daemon's /metrics and from Client.Metrics() *by name*
// (benchmark/cluster.go countersFrom, benchmark/workload.go clientTotals)
// and books a missing one as 0 — so a rename would silently zero a ledger
// column. Here a rename fails go test instead. The servers are assembled the
// way main assembles them; the client list is spelled with a blank after the
// comma, which the parent commit split into an undialable " host:port".
func TestBenchmarkMetricsContract(t *testing.T) {
	d, f, o := startDMS(t), startFMS(t), startOSS(t)
	// Two clients: one observed through the assembly like `-role client`,
	// one dialed with no handle at all, like the benchmark's.
	_, ch := adminFlags{}.observe("client", obs.Export{Objectives: slo.ClientObjectives()})
	var clients []*client.Client
	for i, h := range []*obs.Handle{ch, nil} {
		cl, err := client.Dial(clientConfig(d.addr, f.addr+", ", " "+o.addr, h))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		dir := "/d" + strconv.Itoa(i)
		if err := cl.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := cl.Create(dir+"/f", 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Stat(dir + "/f"); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	if clients[0].Metrics() != ch.Reg {
		t.Error("a client dialed with a handle does not record into its registry")
	}

	dm, fm := d.scrape(t, "/metrics"), f.scrape(t, "/metrics")
	for _, c := range []struct {
		who, text, name string
		labels          []string
		nonZero         bool
	}{
		{"dms", dm, "locofs_rpc_requests_total", nil, true},
		{"fms", fm, "locofs_rpc_requests_total", nil, true},
		{"dms", dm, "locofs_rpc_errors_total", nil, false},
		{"fms", fm, "locofs_rpc_errors_total", nil, false},
		{"dms", dm, "locofs_rpc_service_seconds_sum", nil, true},
		{"fms", fm, "locofs_rpc_service_seconds_sum", nil, true},
		{"dms", dm, "locofs_rpc_service_seconds_sum", []string{`op="Mkdir"`}, true},
		{"dms", dm, "locofs_rpc_service_seconds_count", []string{`op="Mkdir"`}, true},
		{"dms", dm, "locofs_rpc_queue_seconds_sum", nil, true},
		{"fms", fm, "locofs_rpc_queue_seconds_sum", nil, true},
		{"dms", dm, "locofs_kv_ops_total", nil, true},
		{"fms", fm, "locofs_kv_ops_total", nil, true},
		{"dms", dm, "locofs_kv_bytes_total", []string{`dir="written"`}, true},
		{"fms", fm, "locofs_kv_bytes_total", []string{`dir="written"`}, true},
		{"dms", dm, "locofs_dms_lease_recalls_total", nil, false},
	} {
		v, found := promSum(c.text, c.name, c.labels...)
		if !found {
			t.Errorf("%s /metrics has no series %s%v", c.who, c.name, c.labels)
		} else if c.nonZero && v <= 0 {
			t.Errorf("%s %s%v = %v after a mkdir, a create and a stat, want > 0", c.who, c.name, c.labels, v)
		}
	}
	if v, _ := promSum(dm, "locofs_rpc_service_seconds_count", `op="Mkdir"`); v != 2 {
		t.Errorf("dms served %v Mkdir, want 2", v)
	}

	// The client side of the ledger; without a handle it is the private
	// registry Client.Metrics() returns. The retry counter is created with
	// the op's other instruments on its first call, so it is present at 0.
	for i, cl := range clients {
		retries := false
		for _, m := range cl.Metrics().Snapshot().Metrics {
			retries = retries || m.Name == "locofs_client_retries_total"
		}
		if !retries {
			t.Errorf("client %d: Metrics() has no locofs_client_retries_total series", i)
		}
	}

	// The status endpoints ride on the same assembly.
	if slo := d.scrape(t, "/debug/slo"); !strings.Contains(slo, `"server": "dms"`) {
		t.Errorf("/debug/slo does not describe the dms: %.200s", slo)
	}
	if cs := d.scrape(t, "/debug/cluster"); !strings.Contains(cs, `"servers"`) {
		t.Errorf("/debug/cluster has no servers section: %.200s", cs)
	}
}

// families returns the distinct metric family names in a registry.
func families(reg *telemetry.Registry) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range reg.Snapshot().Metrics {
		if !seen[m.Name] {
			seen[m.Name] = true
			out = append(out, m.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TestAssemblyParity: an FMS assembled the locofsd way and one assembled
// the core.Cluster way go through the same obs.Process.For, so after the
// same traffic they export the same metric families — apart from what the
// assembly takes as arguments (obs.Export), which the two sites set
// differently on purpose:
//
//   - Store: locofsd exports its KV engine's gauges (locofs_kv_*); the
//     in-process cluster's experiments read kv.Counters directly.
//   - Objectives: locofsd exports SLO gauges (locofs_slo_*); the cluster
//     evaluates objectives on its merged status instead.
//   - Recorder: a locofsd's one registry carries the journal and recorder
//     counters (locofs_flight_*); in a cluster only "dms" does, so a merged
//     view does not count the shared journal once per server.
func TestAssemblyParity(t *testing.T) {
	d, f, o := startDMS(t), startFMS(t), startOSS(t)
	cl, err := client.Dial(clientConfig(d.addr, f.addr, o.addr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := core.Start(core.Options{FMSCount: 1, CheckPermissions: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ccl, err := c.NewClient(core.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ccl.Close()
	for _, fs := range []*client.Client{cl, ccl} {
		if err := fs.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := fs.Create("/d/f", 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat("/d/f"); err != nil {
			t.Fatal(err)
		}
	}

	byArgument := []string{"locofs_kv_", "locofs_slo_", "locofs_flight_"}
	argument := func(name string) string {
		for _, prefix := range byArgument {
			if strings.HasPrefix(name, prefix) {
				return prefix
			}
		}
		return ""
	}
	var daemon []string
	exported := map[string]bool{}
	for _, name := range families(f.h.Reg) {
		if prefix := argument(name); prefix != "" {
			exported[prefix] = true
		} else {
			daemon = append(daemon, name)
		}
	}
	cluster := families(c.Metrics["fms-0"])
	if !reflect.DeepEqual(daemon, cluster) {
		t.Errorf("metric families differ beyond obs.Export:\n locofsd fms: %v\n cluster fms: %v", daemon, cluster)
	}
	for _, prefix := range byArgument {
		if !exported[prefix] {
			t.Errorf("locofsd fms exports no %s* family", prefix)
		}
	}
	// The cluster's one Recorder export is on "dms".
	if got := families(c.Metrics["dms"]); !contains(got, "locofs_flight_events_total") {
		t.Errorf("cluster dms registry lacks the journal counters: %v", got)
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
