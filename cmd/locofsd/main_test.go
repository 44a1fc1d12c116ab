package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
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
	addr  string
	h     *obs.Handle
	admin http.Handler
}

// startRole assembles a role's observability through adminFlags.observe —
// the path main takes — builds its component over a fresh store, and serves
// it on a loopback TCP port.
func startRole(t *testing.T, af adminFlags, name string, store *kv.Instrumented, build func(h *obs.Handle) (attach func(*rpc.Server), hot *trace.TopK)) role {
	t.Helper()
	p, h := af.observe(name, obs.Export{Objectives: slo.ServerObjectives(), Store: store})
	attach, hot := build(h)
	l, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := rpc.New(rpc.Config{Obs: h})
	admin := p.Admin(h, slo.ServerObjectives(), rs.MapVer, hot, nil)
	attach(rs)
	go rs.Serve(l)
	t.Cleanup(rs.Shutdown)
	return role{l.Addr(), h, admin}
}

func startDMS(t *testing.T) role { return startTracedDMS(t, nil) }

// startTracedDMS is startDMS for a daemon started with -trace-sample (a nil
// tr: without).
func startTracedDMS(t *testing.T, tr *trace.Tracer) role {
	store := kv.Instrument(kv.NewBTreeStore(), kv.RAM)
	return startRole(t, adminFlags{obs: obs.Config{Tracer: tr}}, "dms", store, func(h *obs.Handle) (func(*rpc.Server), *trace.TopK) {
		d := dms.New(dms.Options{Store: store, CheckPermissions: true, Obs: h})
		n := partition.New(partition.Config{DMS: d, Dialer: netsim.TCPDialer{}, Obs: h})
		t.Cleanup(n.Close)
		return n.Attach, d.HotKeys()
	})
}

func startFMS(t *testing.T) role {
	store := kv.Instrument(kv.NewHashStore(), kv.RAM)
	return startRole(t, adminFlags{}, "fms-1", store, func(h *obs.Handle) (func(*rpc.Server), *trace.TopK) {
		f := fms.New(fms.Options{Store: store, ServerID: 1, CheckPermissions: true, Obs: h})
		return f.Attach, f.HotKeys()
	})
}

func startOSS(t *testing.T) role {
	store := kv.Instrument(kv.NewHashStore(), kv.RAM)
	return startRole(t, adminFlags{}, "oss", store, func(*obs.Handle) (func(*rpc.Server), *trace.TopK) {
		return objstore.New(store).Attach, nil
	})
}

// scrape GETs path from the role's admin surface, as served under
// -metrics-addr.
func (r role) scrape(t *testing.T, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	r.admin.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
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
//
// The journal and recorder counters (locofs_flight_*) are process-wide and
// live on the process's own registry: a locofsd's one handle is named like
// its process, so its registry carries them; a cluster's servers do not, and
// ClusterStatus merges them in once from the cluster's process.
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
	// The cluster's journal counters are on its process's registry.
	if got := families(c.Flight.Reg); !contains(got, "locofs_flight_events_total") {
		t.Errorf("cluster process registry lacks the journal counters: %v", got)
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

// TestAdminSurfaceShape holds the admin surface to a recorded contract: for
// a traced DMS assembled the locofsd way, the index line, the set of /metrics
// series names and label keys, and the JSON key paths and types of every
// /debug endpoint, error bodies included (testdata/admin_shape.txt).
func TestAdminSurfaceShape(t *testing.T) {
	d := startTracedDMS(t, trace.New(trace.Config{Sample: 1}))
	f, o := startFMS(t), startOSS(t)
	cfg := clientConfig(d.addr, f.addr, o.addr, nil)
	cfg.DisableCache = true // every resolve then looks up at the DMS
	cl, err := client.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("/a/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/a/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Readdir("/a"); err != nil {
		t.Fatal(err)
	}

	var lookup string
	var list []struct{ Trace, Root string }
	if err := json.Unmarshal([]byte(d.scrape(t, "/debug/traces")), &list); err != nil {
		t.Fatal(err)
	}
	for _, s := range list {
		if s.Root == "LookupDir" {
			lookup = s.Trace
		}
	}
	if lookup == "" {
		t.Fatalf("no LookupDir trace retained: %+v", list)
	}

	var sb strings.Builder
	for _, req := range []struct{ method, path string }{
		{"GET", "/"},
		{"GET", "/metrics"},
		{"GET", "/debug/vars"},
		{"GET", "/debug/traces"},
		{"GET", "/debug/traces/" + lookup},
		{"GET", "/debug/hot?n=3"},
		{"GET", "/debug/slo"},
		{"GET", "/debug/cluster"},
		{"GET", "/debug/events"},
		{"GET", "/debug/bundle"},
		{"GET", "/debug/bundle?last=1"},
		{"GET", "/debug/traces?limit=0"},
		{"GET", "/debug/traces/0xdead"},
		{"GET", "/debug/hot?n=x"},
		{"GET", "/debug/events?max=banana"},
		{"GET", "/debug/bundle?last=banana"},
		{"POST", "/debug/slo"},
		{"DELETE", "/debug/bundle"},
	} {
		rec := httptest.NewRecorder()
		d.admin.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, nil))
		path := req.path
		if path == "/debug/traces/"+lookup {
			path = "/debug/traces/<lookup>"
		}
		fmt.Fprintf(&sb, "== %s %s %d %s\n", req.method, path, rec.Code, rec.Header().Get("Content-Type"))
		var lines []string
		switch body := rec.Body.String(); req.path {
		case "/":
			lines = []string{strings.TrimSpace(body)}
		case "/metrics":
			lines = seriesShape(body)
		case "/debug/vars":
			for _, l := range jsonShape(t, body) {
				if strings.Count(l, ".") <= 1 { // the top-level vars; memstats is the runtime's
					lines = append(lines, l)
				}
			}
		default:
			lines = jsonShape(t, body)
		}
		for _, l := range lines {
			sb.WriteString(l + "\n")
		}
	}
	// A bundle span carries "sub" only as a client fan-out branch, as on
	// /debug/traces, so a server's spans carry none.
	var b struct {
		Spans []struct {
			Name string
			Sub  *int
		}
	}
	if err := json.Unmarshal([]byte(d.scrape(t, "/debug/bundle?last=1")), &b); err != nil {
		t.Fatal(err)
	}
	for _, sp := range b.Spans {
		if sp.Sub != nil {
			t.Errorf("bundle span %s has sub %d", sp.Name, *sp.Sub)
		}
	}

	want, err := os.ReadFile("testdata/admin_shape.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("admin surface differs from testdata/admin_shape.txt:\n%s", lineDiff(string(want), got))
		t.Logf("whole surface:\n%s", got)
	}
}

// jsonShape flattens a JSON body into sorted "path type" lines: object keys
// join with ".", array elements become "[]" (their shapes unioned), and the
// keys of a status "counters" map, which name metric series, become "*".
func jsonShape(t *testing.T, body string) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%.300s", err, body)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			seen[path+" object"] = true
			for k, child := range x {
				if strings.HasSuffix(path, "counters") {
					k = "*"
				}
				walk(path+"."+k, child)
			}
		case []any:
			seen[path+" array"] = true
			for _, child := range x {
				walk(path+"[]", child)
			}
		case string:
			seen[path+" string"] = true
		case float64:
			seen[path+" number"] = true
		case bool:
			seen[path+" bool"] = true
		default:
			seen[path+" null"] = true
		}
	}
	walk("", doc)
	return sortedKeys(seen)
}

// seriesShape reduces Prometheus text to its sorted set of series names,
// each with its label keys: `name{k1,k2}`.
func seriesShape(text string) []string {
	key := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
	seen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		series, _, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, _ := strings.Cut(series, "{")
		var keys []string
		for _, m := range key.FindAllStringSubmatch(labels, -1) {
			keys = append(keys, m[1])
		}
		sort.Strings(keys)
		seen[name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	return sortedKeys(seen)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lineDiff lists the lines only one of want and got has.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var sb strings.Builder
	keys := make([]string, 0, len(count))
	for l, n := range count {
		if n != 0 {
			keys = append(keys, l)
		}
	}
	sort.Strings(keys)
	for _, l := range keys {
		if count[l] > 0 {
			fmt.Fprintf(&sb, "- %s\n", l)
		} else {
			fmt.Fprintf(&sb, "+ %s\n", l)
		}
	}
	return sb.String()
}
