package bench

import (
	"fmt"
	"strings"
	"time"

	"locofs/internal/client"
	"locofs/internal/core"
	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// FigFaults exercises the client's fault-tolerance layer against injected
// network faults on one FMS of a three-FMS cluster (beyond the paper: the
// paper's evaluation assumes healthy servers). Each row is one scenario:
//
//   - healthy: baseline — no fault, default policy.
//   - blackhole: fms-1 silently eats every message; the client has a
//     per-attempt deadline and retries disabled, so the fanned-out readdir
//     must fail within the deadline instead of hanging (the acceptance
//     bound for the resilience layer).
//   - flaky+retry: the link to fms-1 drops every 4th message; with retries
//     enabled every operation still succeeds, at the price of the retry
//     attempts and deadline expiries the table reports.
//   - blackhole+breaker: the first call burns one deadline and trips the
//     breaker; subsequent calls fail fast without waiting, so the mean
//     latency of the follow-up calls collapses from the deadline to ~zero.
func FigFaults(env Env) (*Table, error) {
	const (
		opTimeout = 75 * time.Millisecond
		followUps = 5 // calls issued after the breaker has tripped
	)
	cluster, err := core.Start(core.Options{FMSCount: 3, Link: env.Link})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	seed, err := cluster.NewClient(core.ClientConfig{})
	if err != nil {
		return nil, err
	}
	if err := seed.Mkdir("/dir", 0o755); err != nil {
		return nil, err
	}
	const files = 30
	for i := 0; i < files; i++ {
		if err := seed.Create(fmt.Sprintf("/dir/f-%02d", i), 0o644); err != nil {
			return nil, err
		}
	}
	seed.Close()

	t := &Table{
		Title: "Faults: client resilience under injected faults on fms-1 (3 FMS)",
		Note: fmt.Sprintf("per-attempt deadline %v where armed; wall latency per readdir; link RTT = %v",
			opTimeout, env.Link.RTT),
		Headers: []string{"scenario", "outcome", "mean wall", "retries", "deadlines", "fastfails"},
	}

	scenarios := []struct {
		name  string
		fault netsim.FaultConfig
		cfg   core.ClientConfig
		calls int
	}{
		{"healthy", netsim.FaultConfig{}, core.ClientConfig{}, 3},
		{"blackhole", netsim.FaultConfig{Blackhole: true},
			core.ClientConfig{OpTimeout: opTimeout, Retry: client.RetryPolicy{Max: -1}}, 3},
		{"flaky+retry", netsim.FaultConfig{DropEveryN: 4},
			core.ClientConfig{OpTimeout: opTimeout,
				Retry: client.RetryPolicy{Max: 4, Base: time.Millisecond}}, 5},
		{"blackhole+breaker", netsim.FaultConfig{Blackhole: true},
			core.ClientConfig{OpTimeout: opTimeout, Retry: client.RetryPolicy{Max: -1},
				Breaker: client.BreakerConfig{Threshold: 1, Cooldown: time.Minute}}, 1 + followUps},
	}
	for _, sc := range scenarios {
		cluster.Network().SetFault("fms-1", sc.fault)
		reg := telemetry.NewRegistry()
		sc.cfg.Obs = &obs.Handle{Reg: reg}
		sc.cfg.DisableCache = false
		c, err := cluster.NewClient(sc.cfg)
		if err != nil {
			return nil, err
		}
		ok, failed := 0, 0
		var wall time.Duration
		for i := 0; i < sc.calls; i++ {
			t0 := time.Now()
			_, err := c.Readdir("/dir")
			d := time.Since(t0)
			if err != nil {
				failed++
				// The whole point: even failures must come back within the
				// configured bound, never hang.
				if sc.cfg.OpTimeout > 0 && d > 20*sc.cfg.OpTimeout {
					c.Close()
					return nil, fmt.Errorf("faults: %s readdir took %v, deadline not enforced", sc.name, d)
				}
			} else {
				ok++
			}
			// The breaker row reports the mean of the post-trip calls only,
			// to show the fail-fast collapse.
			if sc.name != "blackhole+breaker" || i > 0 {
				wall += d
			}
		}
		n := sc.calls
		if sc.name == "blackhole+breaker" {
			n = followUps
		}
		outcome := fmt.Sprintf("%d/%d ok", ok, sc.calls)
		if failed > 0 {
			outcome += " (" + wire.StatusDeadline.String() + "/" + wire.StatusUnavailable.String() + ")"
		}
		t.AddRow(sc.name, outcome,
			fmt.Sprintf("%v", (wall/time.Duration(n)).Round(10*time.Microsecond)),
			fmt.Sprint(counterTotal(reg, client.MetricRetries)),
			fmt.Sprint(counterTotal(reg, client.MetricDeadlines)),
			fmt.Sprint(counterTotal(reg, client.MetricFastFails)))
		c.Close()
		cluster.Network().ClearFault("fms-1")
	}
	return t, nil
}

// counterTotal sums a counter metric across all of its label combinations.
func counterTotal(reg *telemetry.Registry, name string) uint64 {
	var n uint64
	for _, m := range reg.Snapshot().Metrics {
		if m.Kind == telemetry.KindCounter && strings.HasPrefix(m.Name, name) {
			n += uint64(m.Value)
		}
	}
	return n
}
