package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"locofs/internal/client"
	"locofs/internal/core"
	"locofs/internal/slo"
	"locofs/internal/telemetry"
)

// FigSLOStorm drives a zipfian mixed metadata workload (stat-heavy with a
// create/remove and readdir component, hot keys skewed onto a few
// directories) against a 1-DMS/4-FMS cluster configured with short
// telemetry windows, then samples the cluster-health aggregator once per
// window and reports SLO adherence over time: per-window event counts,
// time-local p95 versus the class target, burn rate and remaining error
// budget. This is the observability pipeline end-to-end — windowed
// histograms → per-server SLO evaluation → cluster merge — under load,
// not a paper figure.
func FigSLOStorm(env Env) (*Table, error) {
	width := 250 * time.Millisecond
	samples := 8
	workers := 4
	if env.LatItems < 200 { // quick environment
		width = 150 * time.Millisecond
		samples = 4
		workers = 2
	}
	files := env.TputItems * 5
	if files < 100 {
		files = 100
	}

	cluster, err := core.Start(core.Options{
		FMSCount: 4,
		Link:     env.Link,
		Window:   telemetry.WindowConfig{Width: width, Num: samples + 2},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	seed, err := cluster.NewClient(core.ClientConfig{})
	if err != nil {
		return nil, err
	}
	defer seed.Close()
	if err := seed.Mkdir("/storm", 0o755); err != nil {
		return nil, err
	}
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("/storm/f%05d", i)
		if err := seed.Create(names[i], 0o644); err != nil {
			return nil, err
		}
	}

	// Zipfian mixed workload: mostly stats of skewed-hot files, plus
	// readdirs of the shared directory and create/remove churn.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var workErr error
	var workErrOnce sync.Once
	for w := 0; w < workers; w++ {
		wcl, err := cluster.NewClient(core.ClientConfig{})
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(w int, wcl *client.Client) {
			defer wg.Done()
			defer wcl.Close()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			zipf := rand.NewZipf(rng, 1.3, 1, uint64(files-1))
			fail := func(err error) {
				workErrOnce.Do(func() { workErr = fmt.Errorf("slostorm worker %d: %w", w, err) })
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[zipf.Uint64()]
				switch i % 10 {
				case 0: // churn: create a private file, then remove it
					tmp := fmt.Sprintf("/storm/w%d-%d", w, i)
					if err := wcl.Create(tmp, 0o644); err != nil {
						fail(err)
						return
					}
					if err := wcl.Remove(tmp); err != nil {
						fail(err)
						return
					}
				case 1: // list the shared directory
					if _, err := wcl.Readdir("/storm"); err != nil {
						fail(err)
						return
					}
				default: // stat the zipfian-hot file
					if _, err := wcl.StatFile(name); err != nil {
						fail(err)
						return
					}
				}
			}
		}(w, wcl)
	}

	t := &Table{
		Title: "SLO storm: windowed quantiles, burn rate and error budget under zipfian load",
		Note: fmt.Sprintf("1 DMS + 4 FMS, %d workers over %d files (zipf s=1.3); %v windows sampled via the cluster aggregator; link RTT = %v",
			workers, files, width, env.Link.RTT),
		Headers: []string{"t", "class", "ops(win)", "rate/s", "p50", "p95", "p99", "target", "burn", "budget", "met"},
	}
	fmtS := func(sec float64) string {
		if sec <= 0 {
			return "-"
		}
		return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
	}

	start := time.Now()
	var lastHot string
	for s := 1; s <= samples; s++ {
		time.Sleep(width)
		cs := cluster.ClusterStatus()
		if len(cs.Servers) != 6 {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("slostorm: cluster status has %d servers, want 6", len(cs.Servers))
		}
		if !cs.MapAgreement {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("slostorm: map version disagreement in a static cluster")
		}
		at := time.Since(start).Round(10 * time.Millisecond)
		for _, c := range cs.SLO {
			if c.Class == slo.ClassData && c.WindowCount == 0 {
				continue // metadata-only workload
			}
			met := "yes"
			if !c.Met {
				met = "NO"
			}
			h := slo.HistFromBuckets(c.Buckets, c.SumSec, c.MaxSec)
			t.AddRow(at.String(), c.Class,
				fmt.Sprint(c.WindowCount),
				fmt.Sprintf("%.0f", c.RatePerSec),
				fmtS(h.Quantile(0.50).Seconds()),
				fmtS(c.WindowPSec),
				fmtS(h.Quantile(0.99).Seconds()),
				fmtS(c.TargetSec),
				fmt.Sprintf("%.2f", c.BurnRate),
				fmt.Sprintf("%.3f", c.BudgetRemaining),
				met)
		}
		if len(cs.Hot) > 0 {
			lastHot = fmt.Sprintf("%s (%d hits, via %s)", cs.Hot[0].Key, cs.Hot[0].Count, cs.Hot[0].Source)
		}
	}
	close(stop)
	wg.Wait()
	if workErr != nil {
		return nil, workErr
	}
	if lastHot != "" {
		t.Note += "; hottest key: " + lastHot
	}
	return t, nil
}
