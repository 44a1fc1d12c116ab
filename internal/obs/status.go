package obs

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"locofs/internal/slo"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
)

// hotTopN bounds how many hot keys each server contributes to a status
// snapshot.
const hotTopN = 5

// StatusSource is one scrapable server: a name and a fetch that yields its
// current ServerStatus. Local sources close over a registry; remote ones
// wrap slo.FetchStatus over HTTP.
type StatusSource struct {
	Name  string
	Fetch func() (*slo.ServerStatus, error)
}

// LocalSource builds a StatusSource over an in-process server's registry.
// mapVer (nil ok) supplies the version of the cluster map the server holds
// and hot (nil ok) its heavy-hitter sketch.
func LocalSource(name string, reg *telemetry.Registry, mapVer func() uint64, hot *trace.TopK, objs []slo.Objective) StatusSource {
	return StatusSource{
		Name: name,
		Fetch: func() (*slo.ServerStatus, error) {
			opts := slo.CollectOptions{Server: name, Objectives: objs}
			if mapVer != nil {
				opts.MapVer = mapVer()
			}
			if hot != nil {
				for _, hk := range hot.Top(hotTopN) {
					opts.Hot = append(opts.Hot, slo.HotEntry{Source: name, Key: hk.Key, Count: hk.Count})
				}
			}
			return slo.Collect(reg, opts), nil
		},
	}
}

// HTTPSource builds a StatusSource scraping a peer's /debug/slo endpoint.
func HTTPSource(name, url string, timeout time.Duration) StatusSource {
	client := &http.Client{Timeout: timeout}
	if timeout <= 0 {
		client.Timeout = slo.DefaultFetchTimeout
	}
	return StatusSource{
		Name:  name,
		Fetch: func() (*slo.ServerStatus, error) { return slo.FetchStatus(client, url) },
	}
}

// Aggregator polls a set of status sources and merges them into one
// cluster-wide snapshot. Sources is re-invoked on every poll, so a source
// list derived from the cluster map (core.Cluster.StatusSources)
// automatically follows AddFMS/RemoveFMS and FailoverDMS.
//
// A source whose fetch fails does not fail the poll: the merged snapshot
// simply lists it under Unreachable — a partially-scraped cluster view is
// exactly what an operator needs while a server is down.
type Aggregator struct {
	Sources func() []StatusSource

	// Anomalies, when set, contributes cluster-level anomaly state (e.g.
	// a flight recorder's engine via Recorder.AnomalyState) on top of
	// whatever the per-server statuses carried.
	Anomalies func() []slo.AnomalyState

	mu   sync.Mutex
	last *slo.ClusterStatus
}

// Poll scrapes every source concurrently and merges the results, caching
// and returning the snapshot.
func (a *Aggregator) Poll() *slo.ClusterStatus {
	srcs := a.Sources()
	statuses := make([]*slo.ServerStatus, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, s := range srcs {
		wg.Add(1)
		go func(i int, s StatusSource) {
			defer wg.Done()
			statuses[i], errs[i] = s.Fetch()
		}(i, s)
	}
	wg.Wait()

	var ok []*slo.ServerStatus
	var unreachable []string
	for i, st := range statuses {
		if errs[i] != nil || st == nil {
			unreachable = append(unreachable, srcs[i].Name)
			continue
		}
		ok = append(ok, st)
	}
	cs := slo.MergeCluster(ok, unreachable)
	if a.Anomalies != nil {
		if extra := a.Anomalies(); len(extra) > 0 {
			cs.Anomalies = append(cs.Anomalies, extra...)
			sort.SliceStable(cs.Anomalies, func(i, j int) bool {
				return cs.Anomalies[i].LastNS > cs.Anomalies[j].LastNS
			})
		}
	}
	a.mu.Lock()
	a.last = cs
	a.mu.Unlock()
	return cs
}

// Last returns the most recent snapshot (nil before the first poll).
func (a *Aggregator) Last() *slo.ClusterStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last
}

// status is the process's own status: that of the server Admin named, with
// the recorder's anomaly state. Nil before Admin.
func (p *Process) status() *slo.ServerStatus {
	if p.self.Fetch == nil {
		return nil
	}
	st, _ := p.self.Fetch()
	st.Anomalies = p.Recorder.AnomalyState()
	return st
}

// Admin names h as the server this process's own status describes — judged
// against objs, with mapVer (nil ok) supplying its cluster-map version and
// hot (nil ok) its heavy-hitter sketch — and returns the admin endpoints to
// mount next to /metrics: span trees under /debug/traces, hot under
// /debug/hot, the process's status under /debug/slo, that status merged with
// every peer's under /debug/cluster, and the recorder's /debug/events journal
// and /debug/bundle diagnostics. All endpoints exist even when their feed is
// empty, so operators can probe them to check whether a feature is enabled.
// Call it before starting the recorder, which watches the same status unless
// New was given another feed.
func (p *Process) Admin(h *Handle, objs []slo.Objective, mapVer func() uint64, hot *trace.TopK, peers []StatusSource) map[string]http.Handler {
	p.self = LocalSource(h.Name, h.Reg, mapVer, hot, objs)
	self := StatusSource{Name: "self", Fetch: func() (*slo.ServerStatus, error) { return p.status(), nil }}
	cluster := &Aggregator{Sources: func() []StatusSource {
		return append([]StatusSource{self}, peers...)
	}}
	routes := map[string]http.Handler{
		"/debug/traces/": trace.TracesHandler(p.Tracer),
		"/debug/hot":     trace.HotHandler(map[string]*trace.TopK{h.Name: hot}),
		"/debug/slo":     slo.StatusHandler(func() any { return p.status() }),
		"/debug/cluster": slo.StatusHandler(func() any { return cluster.Poll() }),
	}
	for path, rh := range p.Recorder.Routes() {
		routes[path] = rh
	}
	return routes
}
