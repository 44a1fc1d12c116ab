package core

import (
	"fmt"
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
// list derived from the cluster map (Cluster.StatusSources) automatically
// follows AddFMS/RemoveFMS and FailoverDMS.
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

// Run polls every interval until stop closes. Typical deployments instead
// poll lazily from the /debug/cluster handler; Run exists for dashboards
// that want a warm Last().
func (a *Aggregator) Run(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			a.Poll()
		}
	}
}

// StatusSources returns one local source per live server of the cluster map
// — every DMS replica, the current FMS set (servers added, removed or failed
// over online appear/disappear on the next poll), and every OSS — plus one
// source per tracked client registry, so client-side dircache/breaker/RTT
// telemetry (PR 7) joins the merge.
func (c *Cluster) StatusSources() []StatusSource {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []StatusSource
	add := func(addr string, hot *trace.TopK) {
		if rs, reg := c.rsByAddr[addr], c.Metrics[addr]; rs != nil && reg != nil {
			out = append(out, LocalSource(addr, reg, rs.MapVer, hot, slo.ServerObjectives()))
		}
	}
	for pid, g := range c.cmap.Groups {
		live := c.DMSNodes[pid]
		for _, a := range g {
			if !c.killed[a] && len(live) > 0 {
				add(a, live[0].DMS().HotKeys())
				live = live[1:]
			}
		}
	}
	for i, m := range c.cmap.FMS {
		var hot *trace.TopK
		if i < len(c.FMS) {
			hot = c.FMS[i].HotKeys()
		}
		add(m.Addr, hot)
	}
	for _, a := range c.ossAddrs {
		add(a, nil)
	}
	for i, reg := range c.clientRegs {
		out = append(out, LocalSource(fmt.Sprintf("client-%d", i), reg, nil, nil, slo.ClientObjectives()))
	}
	return out
}

// ClusterStatus scrapes every live server and returns the merged
// cluster-health snapshot — the in-process equivalent of /debug/cluster —
// including the flight recorder's anomaly state.
func (c *Cluster) ClusterStatus() *slo.ClusterStatus {
	a := &Aggregator{Sources: c.StatusSources}
	if c.Flight != nil {
		a.Anomalies = c.Flight.AnomalyState
	}
	return a.Poll()
}
