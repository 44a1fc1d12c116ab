package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/client"
	"locofs/internal/core"
	"locofs/internal/wire"
)

// cacheStormTTL is the TTL used by the TTL-only mode. A TTL cache has to
// stay short to bound how stale a client may read, so this is the knob a
// TTL-only deployment would actually run with — unlike the lease-coherent
// mode, which can hold entries for the full 30 s paper lease because the
// DMS keeps them coherent.
const cacheStormTTL = 250 * time.Millisecond

// cacheStormLease is the granted lease in the coherent mode (the paper's
// §3.2.2 30 s client cache lease).
const cacheStormLease = 30 * time.Second

// FigCacheStorm measures the DMS offered load under a zipfian, read-heavy
// metadata storm from a client fleet one to two orders of magnitude larger
// than the mdtest throughput runs use, with the directory cache in three
// modes: off (LocoFS-NC), TTL-only (the pre-lease cache), and
// lease-coherent (negative entries + listing cache). The mode is each
// client's own setting, seed and fleet alike. Clients run on per-client
// virtual clocks (~2 ms/op) so TTL expiry is deterministic, warm their
// caches through the same zipfian stream, and then the steady-state phase
// counts requests actually served by the DMS.
// The run fails if the lease-coherent cache does not cut steady-state DMS
// load by at least 5x versus TTL-only, and ends with a coherence probe: a
// cached ENOENT must stop being served from cache once its holder observes
// the publication of a conflicting mkdir.
func FigCacheStorm(env Env) (*Table, error) {
	clients := 96
	dirs := 48
	warm, measure := 150, env.TputItems*2
	if env.LatItems < 200 { // quick environment
		clients = 24
		dirs = 24
		warm, measure = 60, 160
	}

	type modeResult struct {
		name    string
		ops     int
		dmsReqs uint64
	}
	var results []modeResult

	modes := []struct {
		name string
		opts core.Options
		cc   core.ClientConfig
	}{
		{"caching off", core.Options{}, core.ClientConfig{DisableCache: true}},
		{"ttl-only", core.Options{Lease: cacheStormTTL}, core.ClientConfig{DisableLeaseCoherence: true}},
		{"lease-coherent", core.Options{Lease: cacheStormLease}, core.ClientConfig{}},
	}
	for _, m := range modes {
		opts := m.opts
		opts.FMSCount = 4
		opts.Link = env.Link
		reqs, err := runCacheStorm(opts, m.cc, clients, dirs, warm, measure, m.name == "lease-coherent")
		if err != nil {
			return nil, fmt.Errorf("cachestorm %s: %w", m.name, err)
		}
		results = append(results, modeResult{m.name, clients * measure, reqs})
	}

	t := &Table{
		Title: "Cache storm: steady-state DMS offered load vs client cache mode",
		Note: fmt.Sprintf("%d clients over %d dirs (zipf s=1.3), 55%% statdir / 25%% readdir / 15%% ENOENT probe / 5%% file churn; virtual clocks at 2ms/op; ttl=%v, lease=%v; warm %d + measured %d ops/client",
			clients, dirs, cacheStormTTL, cacheStormLease, warm, measure),
		Headers: []string{"cache mode", "client ops", "DMS reqs", "DMS reqs/op", "vs ttl-only"},
	}
	ttl := results[1].dmsReqs
	for _, r := range results {
		rel := "-"
		if r.name != "ttl-only" {
			if r.dmsReqs > 0 {
				rel = fmt.Sprintf("%.1fx", float64(ttl)/float64(r.dmsReqs))
			} else {
				rel = fmt.Sprintf(">%dx", ttl) // zero steady-state requests
			}
		}
		t.AddRow(r.name, fmt.Sprint(r.ops),
			fmt.Sprint(r.dmsReqs),
			fmt.Sprintf("%.3f", float64(r.dmsReqs)/float64(r.ops)),
			rel)
	}

	coh := results[2].dmsReqs
	if coh == 0 {
		coh = 1
	}
	if float64(ttl)/float64(coh) < 5 {
		return nil, fmt.Errorf("cachestorm: lease-coherent served %d DMS reqs vs %d ttl-only — less than the required 5x reduction",
			results[2].dmsReqs, ttl)
	}
	t.Note += "; coherence probe: cached ENOENT dropped after observed publish (pass)"
	return t, nil
}

// stormClock is a per-client virtual clock: reads are the client's Now,
// and the owning worker advances it ~2 ms per operation.
type stormClock struct {
	ns atomic.Int64
}

func (s *stormClock) now() time.Time {
	return time.Unix(1<<31, 0).Add(time.Duration(s.ns.Load()))
}

// runCacheStorm starts one cluster, dials every client in the cache mode cc
// sets, runs the zipfian storm (warm then measured phase) and returns the
// DMS request count of the measured phase alone. When coherent it finishes
// with the negative-entry coherence probe.
func runCacheStorm(opts core.Options, cc core.ClientConfig, clients, dirs, warm, measure int, coherent bool) (uint64, error) {
	cluster, err := core.Start(opts)
	if err != nil {
		return 0, err
	}
	defer cluster.Close()

	seed, err := cluster.NewClient(cc)
	if err != nil {
		return 0, err
	}
	defer seed.Close()
	names := make([]string, dirs)
	for _, p := range []string{"/storm", "/obs"} {
		if err := seed.Mkdir(p, 0o755); err != nil {
			return 0, err
		}
	}
	for i := range names {
		names[i] = fmt.Sprintf("/storm/d%03d", i)
		if err := seed.Mkdir(names[i], 0o755); err != nil {
			return 0, err
		}
		// A couple of subdirs so readdir has a DMS-side listing, plus
		// files for the FMS side of the merge.
		for s := 0; s < 2; s++ {
			if err := seed.Mkdir(fmt.Sprintf("%s/s%d", names[i], s), 0o755); err != nil {
				return 0, err
			}
		}
		for f := 0; f < 3; f++ {
			if err := seed.Create(fmt.Sprintf("%s/f%d", names[i], f), 0o644); err != nil {
				return 0, err
			}
		}
	}

	var wg, warmed sync.WaitGroup
	startMeasure := make(chan struct{})
	var workErr error
	var workErrOnce sync.Once
	fail := func(w int, err error) {
		workErrOnce.Do(func() { workErr = fmt.Errorf("worker %d: %w", w, err) })
	}
	for w := 0; w < clients; w++ {
		clock := &stormClock{}
		ccfg := cc
		ccfg.Now = clock.now
		wcl, err := cluster.NewClient(ccfg)
		if err != nil {
			close(startMeasure)
			wg.Wait()
			return 0, err
		}
		wg.Add(1)
		warmed.Add(1)
		go func(w int, wcl *client.Client, clock *stormClock) {
			defer wg.Done()
			defer wcl.Close()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			zipf := rand.NewZipf(rng, 1.3, 1, uint64(dirs-1))
			step := func(i int) error {
				clock.ns.Add(int64(2 * time.Millisecond))
				dir := names[zipf.Uint64()]
				switch m := i % 20; {
				case m < 11: // stat the zipfian-hot directory
					_, err := wcl.StatDir(dir)
					return err
				case m < 16: // list it (DMS subdirs + FMS files)
					_, err := wcl.Readdir(dir)
					return err
				case m < 19: // probe a name that never exists (ENOENT)
					_, err := wcl.StatDir(dir + "/missing")
					if wire.StatusOf(err) != wire.StatusNotFound {
						return fmt.Errorf("ENOENT probe: got %v", err)
					}
					return nil
				default: // file churn under a cached directory (FMS-only)
					p := fmt.Sprintf("%s/c%d-%d", dir, w, i)
					if err := wcl.Create(p, 0o644); err != nil {
						return err
					}
					return wcl.Remove(p)
				}
			}
			// Warm through the zipfian stream, then prime every directory
			// once so the measured phase is pure steady state — without the
			// prime, zipf-tail directories get their cold misses
			// mid-measurement in every mode, blurring the steady-state
			// comparison.
			ok := true
			for i := 0; i < warm; i++ {
				if err := step(i); err != nil {
					fail(w, err)
					ok = false
					break
				}
			}
			for _, dir := range names {
				if !ok {
					break
				}
				clock.ns.Add(int64(6 * time.Millisecond))
				if _, err := wcl.StatDir(dir); err != nil {
					fail(w, err)
					ok = false
					break
				}
				if _, err := wcl.Readdir(dir); err != nil {
					fail(w, err)
					ok = false
					break
				}
				if _, err := wcl.StatDir(dir + "/missing"); wire.StatusOf(err) != wire.StatusNotFound {
					fail(w, fmt.Errorf("prime probe: got %v", err))
					ok = false
					break
				}
			}
			warmed.Done()
			if !ok {
				return
			}
			<-startMeasure
			for i := 0; i < measure; i++ {
				if err := step(warm + i); err != nil {
					fail(w, err)
					return
				}
			}
		}(w, wcl, clock)
	}
	warmed.Wait()
	pre := cluster.DMSOpsServed()
	close(startMeasure)
	wg.Wait()
	if workErr != nil {
		return 0, workErr
	}
	served := cluster.DMSOpsServed() - pre

	if coherent {
		if err := stormCoherenceProbe(cluster, seed); err != nil {
			return 0, err
		}
	}
	return served, nil
}

// stormCoherenceProbe is the acceptance check for negative-entry
// coherence: a probe client caches an ENOENT for a path, a second client
// creates that directory, and once the probe has observed the published
// recall sequence (stamped on any DMS response) its next access must
// re-resolve and see the new directory — never serve the stale ENOENT.
func stormCoherenceProbe(cluster *core.Cluster, writer *client.Client) error {
	clock := &stormClock{}
	probe, err := cluster.NewClient(core.ClientConfig{Now: clock.now})
	if err != nil {
		return err
	}
	defer probe.Close()

	if _, err := probe.StatDir("/storm/fresh"); wire.StatusOf(err) != wire.StatusNotFound {
		return fmt.Errorf("coherence probe: want ENOENT, got %v", err)
	}
	trips := probe.Trips()
	if _, err := probe.StatDir("/storm/fresh"); wire.StatusOf(err) != wire.StatusNotFound {
		return fmt.Errorf("coherence probe: want cached ENOENT, got %v", err)
	}
	if probe.Trips() != trips {
		return fmt.Errorf("coherence probe: repeat ENOENT was not served from cache")
	}
	if err := writer.Mkdir("/storm/fresh", 0o755); err != nil {
		return err
	}
	// Any DMS response carries the new recall seq; fetch an unrelated
	// path so the probe observes the publication.
	if _, err := probe.StatDir("/obs"); err != nil {
		return err
	}
	if _, err := probe.StatDir("/storm/fresh"); err != nil {
		return fmt.Errorf("coherence probe: stale ENOENT after observed publish: %v", err)
	}
	return nil
}
