package core

import (
	"fmt"

	"locofs/internal/obs"
	"locofs/internal/slo"
	"locofs/internal/trace"
)

// StatusSources returns one local source per live server of the cluster map
// — every DMS replica, the current FMS set (servers added, removed or failed
// over online appear/disappear on the next poll), and every OSS — plus one
// source per tracked client registry, so client-side dircache/breaker/RTT
// telemetry (PR 7) joins the merge.
func (c *Cluster) StatusSources() []obs.StatusSource {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []obs.StatusSource
	add := func(addr string, hot *trace.TopK) {
		if rs, reg := c.rsByAddr[addr], c.Metrics[addr]; rs != nil && reg != nil {
			out = append(out, obs.LocalSource(addr, reg, rs.MapVer, hot, slo.ServerObjectives()))
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
		out = append(out, obs.LocalSource(fmt.Sprintf("client-%d", i), reg, nil, nil, slo.ClientObjectives()))
	}
	return out
}

// ClusterStatus scrapes every live server and returns the merged
// cluster-health snapshot — the in-process equivalent of /debug/cluster —
// including the flight recorder's anomaly state and counters.
func (c *Cluster) ClusterStatus() *slo.ClusterStatus {
	return obs.Poll(c.StatusSources(), c.Flight)
}
