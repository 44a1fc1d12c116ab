package obs

import (
	"encoding/json"
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

// fetchTimeout bounds one HTTP status scrape when HTTPSource is given none.
const fetchTimeout = 2 * time.Second

// StatusSource is one scrapable server: a name and a fetch that yields its
// current ServerStatus. Local sources close over a registry; remote ones
// scrape a peer's /debug/slo over HTTP.
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

// HTTPSource builds a StatusSource scraping a peer's /debug/slo endpoint at
// url (timeout <= 0 = two seconds).
func HTTPSource(name, url string, timeout time.Duration) StatusSource {
	if timeout <= 0 {
		timeout = fetchTimeout
	}
	client := &http.Client{Timeout: timeout}
	return StatusSource{
		Name: name,
		Fetch: func() (*slo.ServerStatus, error) {
			resp, err := client.Get(url)
			if err != nil {
				return nil, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
			}
			var st slo.ServerStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				return nil, fmt.Errorf("scrape %s: %w", url, err)
			}
			return &st, nil
		},
	}
}

// Poll scrapes every source concurrently and merges the results into one
// cluster-wide snapshot. A source whose fetch fails does not fail the poll:
// the snapshot lists it under Unreachable — a partially-scraped cluster view
// is exactly what an operator needs while a server is down. p (nil ok) adds
// a process no source scrapes: its anomaly state and its process-wide
// counters (a core.Cluster's recorder).
func Poll(srcs []StatusSource, p *Process) *slo.ClusterStatus {
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
	if p != nil {
		for _, m := range p.Reg.Snapshot().Metrics {
			cs.Counters[m.Name+m.Labels] += m.Value
		}
		cs.Anomalies = append(cs.Anomalies, p.AnomalyState()...)
		sort.SliceStable(cs.Anomalies, func(i, j int) bool { return cs.Anomalies[i].LastNS > cs.Anomalies[j].LastNS })
	}
	return cs
}

// status is the process's own status: that of the server Admin named, with
// the recorder's anomaly state. Nil before Admin.
func (p *Process) status() *slo.ServerStatus {
	if p.self.Fetch == nil {
		return nil
	}
	st, _ := p.self.Fetch()
	st.Anomalies = p.AnomalyState()
	return st
}
