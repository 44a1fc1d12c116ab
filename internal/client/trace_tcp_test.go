package client

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"locofs/internal/dms"
	"locofs/internal/fms"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/trace"
)

// TestTracePropagationOverTCP proves span context crosses real process
// boundaries: client and servers record into *separate* rings (as separate
// locofsd processes would), linked only by the trace and parent-span IDs on
// the wire. A traced Readdir over two FMS must yield one joined tree — the
// client root, an rpc child per server call, server-side handler spans
// parented on those rpc spans — the DMS lookup and first subdirectory page,
// pipelined in one group, each on its own — retrievable as JSON from
// /debug/traces/<id>.
func TestTracePropagationOverTCP(t *testing.T) {
	srvTracer := trace.New(trace.Config{Sample: 1, Slow: -1})
	cliTracer := trace.New(trace.Config{Sample: 1, Slow: -1})

	listen := func(name string, attach func(*rpc.Server)) string {
		l, err := netsim.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rs := rpc.New(rpc.Config{Obs: &obs.Handle{Name: name, Tracer: srvTracer}})
		attach(rs)
		go rs.Serve(l)
		t.Cleanup(rs.Shutdown)
		return l.Addr()
	}
	dmsAddr := listen("dms", soloDMS(dms.New(dms.Options{})))
	fms1 := listen("fms-0", fms.New(fms.Options{ServerID: 1}).Attach)
	fms2 := listen("fms-1", fms.New(fms.Options{ServerID: 2}).Attach)
	ossAddr := listen("oss", objstore.New(nil).Attach)

	c, err := Dial(Config{
		Dialer:   netsim.TCPDialer{},
		DMSAddr:  dmsAddr,
		FMSAddrs: []string{fms1, fms2},
		OSSAddrs: []string{ossAddr},
		Obs:      &obs.Handle{Tracer: cliTracer},
		// No cache: the Readdir resolve must go to the DMS, as LookupDir +
		// ReaddirSubdirs pipelined in one group — the linkage under test.
		DisableCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Mkdir("/traced", 0o755); err != nil {
		t.Fatal(err)
	}
	// Enough files that consistent hashing lands some on each FMS.
	for i := 0; i < 24; i++ {
		if err := c.Create(fmt.Sprintf("/traced/f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Readdir("/traced"); err != nil {
		t.Fatal(err)
	}

	// The client ring has the Readdir root; take the newest one.
	var root *trace.Span
	for _, sp := range cliTracer.Spans() {
		if sp.Name == "Readdir" && sp.Parent == 0 {
			root = sp
		}
	}
	if root == nil {
		t.Fatal("no client root span for Readdir")
	}
	tid := root.TraceID

	clientSpans := cliTracer.Trace(tid)
	serverSpans := srvTracer.Trace(tid)
	if len(serverSpans) == 0 {
		t.Fatal("server ring has no spans for the client's trace ID")
	}
	clientByID := make(map[uint64]*trace.Span)
	for _, sp := range clientSpans {
		clientByID[sp.SpanID] = sp
	}

	// Every server-side request span must hang off a client rpc span, and
	// both FMSes must appear.
	servers := map[string]bool{}
	for _, sp := range serverSpans {
		servers[sp.Server] = true
	}
	for _, want := range []string{"dms", "fms-0", "fms-1"} {
		if !servers[want] {
			t.Errorf("no server span from %s in trace (got %v)", want, servers)
		}
	}
	// NB: span IDs are process-local, so a server span's Parent only means
	// "client span" when resolved against the client ring.
	rootLevel := 0
	for _, sp := range serverSpans {
		if sp.Server == "" || sp.Parent == 0 {
			t.Errorf("server span %s@%s missing server or parent", sp.Name, sp.Server)
		}
		if parent, ok := clientByID[sp.Parent]; ok {
			rootLevel++
			if !strings.HasPrefix(parent.Name, "rpc:") {
				t.Errorf("server span %s@%s parented on client span %q, want rpc:*",
					sp.Name, sp.Server, parent.Name)
			}
		}
	}
	if rootLevel == 0 {
		t.Error("no server span is parented on a client rpc span")
	}
	// The pipelined DMS group: each sub-op has its own server span, parented
	// on its own rpc: span.
	dmsParent := map[string]uint64{}
	for _, sp := range serverSpans {
		if sp.Server != "dms" {
			continue
		}
		if sp.Sub >= 0 {
			t.Errorf("dms span %s carries sub index %d", sp.Name, sp.Sub)
		}
		if parent := clientByID[sp.Parent]; parent == nil || parent.Name != "rpc:"+sp.Name {
			t.Errorf("dms span %s not parented on its own rpc:%s span", sp.Name, sp.Name)
		}
		dmsParent[sp.Name] = sp.Parent
	}
	look, page := dmsParent["LookupDir"], dmsParent["ReaddirSubdirs"]
	if look == 0 || page == 0 || look == page {
		t.Errorf("dms spans %v: want LookupDir and ReaddirSubdirs under distinct rpc spans", dmsParent)
	}

	// Joined by parent ids across the two rings, the spans form one tree
	// under the client's Readdir root.
	if roots := trace.BuildTree(append(clientSpans, serverSpans...)); len(roots) != 1 || roots[0].Span != root {
		t.Fatalf("joined tree has %d roots, want the single Readdir@client root", len(roots))
	}

	// The server process's admin endpoint returns its side as JSON: every
	// span parented on a client rpc span surfaces as a root.
	p := obs.New(obs.Config{Name: "dms", Tracer: srvTracer})
	rec := httptest.NewRecorder()
	p.Admin(p.For("dms", obs.Export{}), nil, nil, nil, nil).
		ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/debug/traces/%#x", tid), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%#x = %d: %s", tid, rec.Code, rec.Body)
	}
	var out struct {
		Trace string `json:"trace"`
		Spans int    `json:"spans"`
		Tree  []struct {
			Name     string          `json:"name"`
			Server   string          `json:"server"`
			Children json.RawMessage `json:"children"`
		} `json:"tree"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON from /debug/traces: %v", err)
	}
	if out.Spans != len(serverSpans) || len(out.Tree) != rootLevel {
		t.Errorf("JSON reports %d spans in %d roots, server ring holds %d spans under %d client rpc spans",
			out.Spans, len(out.Tree), len(serverSpans), rootLevel)
	}
	body := rec.Body.String()
	for _, want := range []string{`"fms-0"`, `"fms-1"`, `"dms"`, "ReaddirFiles"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/traces JSON missing %s", want)
		}
	}
}

// TestHotKeysRankSkewedWorkload: after a skewed workload the DMS hot-key
// sketch — and the /debug/hot endpoint reading it — rank the hot directory
// first.
func TestHotKeysRankSkewedWorkload(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	serve := func(addr string, attach func(*rpc.Server)) {
		rs := rpc.NewServer()
		attach(rs)
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go rs.Serve(l)
		t.Cleanup(rs.Shutdown)
	}
	d := dms.New(dms.Options{})
	f := fms.New(fms.Options{ServerID: 1})
	serve("dms", soloDMS(d))
	serve("fms-0", f.Attach)
	serve("oss", objstore.New(nil).Attach)

	c, err := Dial(Config{
		Dialer:       n,
		DMSAddr:      "dms",
		FMSAddrs:     []string{"fms-0"},
		OSSAddrs:     []string{"oss"},
		DisableCache: true, // every lookup must reach the DMS sketch
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, dir := range []string{"/hot", "/cold1", "/cold2", "/cold3"} {
		if err := c.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := c.StatDir("/hot"); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{"/cold1", "/cold2", "/cold3"} {
		if _, err := c.StatDir(dir); err != nil {
			t.Fatal(err)
		}
	}

	top := d.HotKeys().Top(1)
	if len(top) == 0 || top[0].Key != "/hot" {
		t.Fatalf("DMS top key = %+v, want /hot first", top)
	}
	if top[0].Count < 50 {
		t.Errorf("hot key count = %d, want >= 50", top[0].Count)
	}

	p := obs.New(obs.Config{Name: "dms"})
	rec := httptest.NewRecorder()
	p.Admin(p.For("dms", obs.Export{}), nil, nil, d.HotKeys(), nil).
		ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hot?n=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/hot = %d", rec.Code)
	}
	var sources []struct {
		Source string `json:"source"`
		Total  uint64 `json:"total"`
		Top    []struct {
			Key   string `json:"key"`
			Count uint64 `json:"count"`
		} `json:"top"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sources); err != nil {
		t.Fatalf("bad JSON from /debug/hot: %v", err)
	}
	if len(sources) != 1 || sources[0].Source != "dms" {
		t.Fatalf("/debug/hot sources = %+v, want the dms", sources)
	}
	if len(sources[0].Top) == 0 || sources[0].Top[0].Key != "/hot" {
		t.Errorf("/debug/hot dms ranking = %+v, want /hot first", sources[0].Top)
	}
}
