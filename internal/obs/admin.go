package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"locofs/internal/slo"
	"locofs/internal/trace"
)

// adminIndex is the body of GET /: every route the admin surface serves.
const adminIndex = "locofs admin: /metrics /debug/vars /debug/pprof/ /debug/bundle /debug/cluster /debug/events /debug/hot /debug/slo /debug/traces"

// Admin query defaults.
const (
	defaultTraces = 100  // /debug/traces?limit
	defaultHot    = 10   // /debug/hot?n
	defaultEvents = 256  // /debug/events?max
	maxEvents     = 4096 // /debug/events?max cap
)

// Admin names h as the server this process's own status describes — judged
// against objs, with mapVer (nil ok) supplying its cluster-map version and
// hot (nil ok) its heavy-hitter sketch — and returns the process's whole
// admin surface:
//
//	/metrics               Prometheus text of h's registry
//	/debug/vars            expvar JSON (Go runtime memstats included)
//	/debug/pprof/          profiling endpoints
//	/debug/traces[/<id>]   retained trace summaries, newest first (?limit=N),
//	                       or one trace's span tree
//	/debug/hot             h's hottest keys (?n=K)
//	/debug/slo             the process's status
//	/debug/cluster         that status merged with every peer's
//	/debug/events          the journal, paged (?since=N&max=M)
//	/debug/bundle          capture a bundle now, or ?last=1 the latest
//
// Every endpoint exists even when its feed is empty, so operators can probe
// whether a feature is on. Failures answer {"error": msg} with a 4xx/5xx
// status, and anything but GET or HEAD is a 405. Call Admin before Start:
// the anomaly rules watch the status it names unless New was given another.
func (p *Process) Admin(h *Handle, objs []slo.Objective, mapVer func() uint64, hot *trace.TopK, peers []StatusSource) http.Handler {
	p.self = LocalSource(h.Name, h.Reg, mapVer, hot, objs)
	self := StatusSource{Name: "self", Fetch: func() (*slo.ServerStatus, error) { return p.status(), nil }}
	mux := http.NewServeMux()
	api := func(serve func(r *http.Request) (any, *apiError), paths ...string) {
		fn := func(w http.ResponseWriter, r *http.Request) {
			if !readOnly(w, r) {
				return
			}
			if v, e := serve(r); e != nil {
				writeJSON(w, e.code, map[string]string{"error": e.msg})
			} else {
				writeJSON(w, http.StatusOK, v)
			}
		}
		for _, path := range paths {
			mux.HandleFunc(path, fn)
		}
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if readOnly(w, r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = h.Reg.Snapshot().WriteProm(w)
		}
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		if readOnly(w, r) {
			expvar.Handler().ServeHTTP(w, r)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	api(p.traces, "/debug/traces", "/debug/traces/")
	api(func(r *http.Request) (any, *apiError) { return hotKeys(r, h.Name, hot) }, "/debug/hot")
	api(func(*http.Request) (any, *apiError) { return p.status(), nil }, "/debug/slo")
	api(func(*http.Request) (any, *apiError) {
		return Poll(append([]StatusSource{self}, peers...), nil), nil
	}, "/debug/cluster")
	api(p.events, "/debug/events")
	api(p.bundle, "/debug/bundle")
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, adminIndex)
	})
	return mux
}

// apiError is a failed admin request: the status code and the message of
// its {"error": msg} body.
type apiError struct {
	code int
	msg  string
}

func badParam(name, q string) *apiError {
	return &apiError{http.StatusBadRequest, "bad " + name + " " + strconv.Quote(q)}
}

// writeJSON writes v as indented JSON under the given status code, or a 500
// error body if v does not marshal.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

// readOnly rejects anything but GET and HEAD with a 405, reporting whether
// the request may proceed.
func readOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead || r.Method == "" {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method " + r.Method + " not allowed"})
	return false
}

// positiveInt reads the query parameter name as a positive integer, def
// when it is absent.
func positiveInt(r *http.Request, name string, def int) (int, *apiError) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil || v <= 0 {
		return 0, badParam(name, q)
	}
	return v, nil
}

// jsonSpan is the wire form of a Span on the admin surface. IDs render as
// 0x-prefixed hex strings: uint64 values exceed JavaScript's safe-integer
// range, and hex is what the slow-request log lines print, so the two can be
// grepped against each other.
type jsonSpan struct {
	Trace       string   `json:"trace"`
	ID          string   `json:"id"`
	Parent      string   `json:"parent,omitempty"`
	Name        string   `json:"name"`
	Server      string   `json:"server"`
	Status      string   `json:"status,omitempty"`
	Sub         *int     `json:"sub,omitempty"`
	Start       string   `json:"start"`
	DurNS       int64    `json:"dur_ns"`
	Dur         string   `json:"dur"`
	Annotations []string `json:"annotations,omitempty"`
}

// jsonNode is one vertex of the span-tree JSON.
type jsonNode struct {
	jsonSpan
	Children []jsonNode `json:"children,omitempty"`
}

func hexID(v uint64) string { return fmt.Sprintf("%#x", v) }

func toJSONSpan(sp *trace.Span) jsonSpan {
	js := jsonSpan{
		Trace:       hexID(sp.TraceID),
		ID:          hexID(sp.SpanID),
		Name:        sp.Name,
		Server:      sp.Server,
		Status:      sp.Status,
		Start:       sp.Start.Format(time.RFC3339Nano),
		DurNS:       int64(sp.Dur),
		Dur:         sp.Dur.String(),
		Annotations: sp.Annotations,
	}
	if sp.Parent != 0 {
		js.Parent = hexID(sp.Parent)
	}
	if sp.Sub >= 0 {
		sub := sp.Sub
		js.Sub = &sub
	}
	return js
}

func toJSONNodes(nodes []*trace.Node) []jsonNode {
	out := make([]jsonNode, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, jsonNode{jsonSpan: toJSONSpan(n.Span), Children: toJSONNodes(n.Children)})
	}
	return out
}

// traces serves /debug/traces (summaries) and /debug/traces/<id> (one
// trace's span trees; spans whose parent lives in another process's ring
// surface as additional roots). Ids parse as 0x-hex, decimal or bare hex.
func (p *Process) traces(r *http.Request) (any, *apiError) {
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/traces"), "/")
	if rest == "" {
		limit, e := positiveInt(r, "limit", defaultTraces)
		if e != nil {
			return nil, e
		}
		type jsonSummary struct {
			Trace  string `json:"trace"`
			Root   string `json:"root,omitempty"`
			Server string `json:"server,omitempty"`
			Spans  int    `json:"spans"`
			Errors int    `json:"errors,omitempty"`
			Start  string `json:"start"`
			Dur    string `json:"dur"`
		}
		out := []jsonSummary{}
		for _, s := range p.Tracer.Summaries(limit) {
			out = append(out, jsonSummary{hexID(s.TraceID), s.Root, s.Server, s.Spans, s.Errors,
				s.Start.Format(time.RFC3339Nano), s.Dur.String()})
		}
		return out, nil
	}
	id, err := strconv.ParseUint(rest, 0, 64)
	if err != nil {
		id, err = strconv.ParseUint(rest, 16, 64)
	}
	if err != nil {
		return nil, badParam("trace id", rest)
	}
	spans := p.Tracer.Trace(id)
	if len(spans) == 0 {
		return nil, &apiError{http.StatusNotFound, "no spans retained for " + hexID(id)}
	}
	return struct {
		Trace string     `json:"trace"`
		Spans int        `json:"spans"`
		Tree  []jsonNode `json:"tree"`
	}{hexID(id), len(spans), toJSONNodes(trace.BuildTree(spans))}, nil
}

// hotKeys serves /debug/hot: the named server's top-K heavy hitters, as a
// list of per-source rankings (empty without a sketch).
func hotKeys(r *http.Request, name string, hot *trace.TopK) (any, *apiError) {
	n, e := positiveInt(r, "n", defaultHot)
	if e != nil {
		return nil, e
	}
	type jsonSource struct {
		Source string         `json:"source"`
		Total  uint64         `json:"total"`
		Top    []trace.HotKey `json:"top"`
	}
	out := []jsonSource{}
	if hot != nil {
		out = append(out, jsonSource{name, hot.Total(), hot.Top(n)})
	}
	return out, nil
}

// events serves /debug/events over the journal: ?since=N returns events
// with seq > N (0 = from the oldest retained), ?max=N bounds the page. The
// body carries the paging state a tailing consumer needs: the newest seq
// ("cur"), the cursor for the next call ("next"), and "reset" when events
// between since and the oldest retained one were overwritten.
func (p *Process) events(r *http.Request) (any, *apiError) {
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return nil, badParam("since", q)
		}
		since = v
	}
	n, e := positiveInt(r, "max", defaultEvents)
	if e != nil {
		return nil, e
	}
	events, next, reset := p.Journal.Since(since, min(n, maxEvents))
	if events == nil {
		events = []Event{}
	}
	return struct {
		Cur    uint64  `json:"cur"`
		Next   uint64  `json:"next"`
		Reset  bool    `json:"reset"`
		Events []Event `json:"events"`
	}{p.Journal.Seq(), next, reset, events}, nil
}

// bundle serves /debug/bundle: a fresh manual capture, or with ?last=1 the
// most recent bundle (404 before the first).
func (p *Process) bundle(r *http.Request) (any, *apiError) {
	if q := r.URL.Query().Get("last"); q != "" {
		last, err := strconv.ParseBool(q)
		if err != nil {
			return nil, badParam("last", q)
		}
		if last {
			if b := p.LastBundle(); b != nil {
				return b, nil
			}
			return nil, &apiError{http.StatusNotFound, "no bundle captured yet"}
		}
	}
	return p.Capture("manual"), nil
}
