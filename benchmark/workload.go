package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"locofs"
	"locofs/internal/netsim"
)

func isNotFound(err error) bool { return errors.Is(err, locofs.ErrNotFound) }

// execOp makes the client call of one op and checks the result against the
// generator's expectation. Only the call itself is timed; the check is not.
func execOp(fs *locofs.Client, o *op) (time.Duration, error) {
	var err error
	var n int
	var ents []locofs.DirEntry
	var attr *locofs.Attr
	t0 := time.Now()
	switch o.Kind {
	case kCreate:
		err = fs.Create(o.Path, 0o644)
	case kStat:
		attr, err = fs.StatFile(o.Path)
	case kRemove:
		err = fs.Remove(o.Path)
	case kChmod:
		err = fs.Chmod(o.Path, 0o600)
	case kReaddir:
		ents, err = fs.Readdir(o.Path)
	case kMkdir:
		err = fs.Mkdir(o.Path, 0o755)
	case kRmdir:
		err = fs.Rmdir(o.Path)
	case kStatDir:
		attr, err = fs.StatDir(o.Path)
	case kChmodDir:
		err = fs.ChmodDir(o.Path, 0o750)
	case kRenameLocal, kRenameCross:
		n, err = fs.RenameDir(o.Path, o.Path2)
	}
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	switch o.Kind {
	case kStat:
		if attr.Kind != locofs.KindFile {
			return d, fmt.Errorf("stat %s: not a file", o.Path)
		}
	case kStatDir:
		if attr.Kind != locofs.KindDir {
			return d, fmt.Errorf("statdir %s: not a directory", o.Path)
		}
	case kRenameLocal, kRenameCross:
		if n != o.N {
			return d, fmt.Errorf("rename %s: moved %d directories, model has %d", o.Path, n, o.N)
		}
	case kReaddir:
		if len(ents) != o.N {
			return d, fmt.Errorf("readdir %s: %d entries, model has %d", o.Path, len(ents), o.N)
		}
		if o.Names != nil {
			got := make([]string, len(ents))
			for i, e := range ents {
				got[i] = e.Name
			}
			sort.Strings(got)
			for i := range got {
				if got[i] != o.Names[i] {
					return d, fmt.Errorf("readdir %s: entry %d is %q, model has %q", o.Path, i, got[i], o.Names[i])
				}
			}
		}
	}
	return d, nil
}

// opLog is what one lane records: per-class latencies in nanoseconds and
// the ops that did not return the model's result.
type opLog struct {
	lat      [][]int64 // indexed like classNames
	failed   int
	firstErr error
}

func newOpLog() *opLog { return &opLog{lat: make([][]int64, len(classNames))} }

func (l *opLog) run(fs *locofs.Client, ops []op, tr *tracer) {
	for i := range ops {
		o := &ops[i]
		c := classOf(o.Kind)
		if tr != nil {
			tr.begin(classNames[c])
		}
		d, err := execOp(fs, o)
		if tr != nil {
			tr.end()
		}
		l.lat[c] = append(l.lat[c], int64(d))
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = fmt.Errorf("%s %s: %w", classNames[c], o.Path, err)
			}
		}
	}
}

func (l *opLog) merge(o *opLog) {
	for c := range l.lat {
		l.lat[c] = append(l.lat[c], o.lat[c]...)
	}
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func (l *opLog) all() []int64 {
	var out []int64
	for _, c := range l.lat {
		out = append(out, c...)
	}
	return out
}

// session is a running cluster, the clients driving it, and the model of
// what the cluster must hold.
type session struct {
	wl      workload
	cl      *cluster
	clients []*locofs.Client // one per lane
	setup   time.Duration    // spawn -> servers ready -> preload done
	hash    *streamHash
}

// dial connects one client to the cluster through the public API. A non-nil
// tracer is given the connections to watch.
func (s *session) dial(tr *tracer) (*locofs.Client, error) {
	var d netsim.Dialer = locofs.TCPDialer{}
	if tr != nil {
		d = traceDialer{inner: d, t: tr}
	}
	return locofs.Dial(locofs.DialConfig{
		Dialer:       d,
		DMSAddr:      s.cl.addrs("dms")[0],
		DMSSharded:   s.cl.topo == topoSharded,
		FMSAddrs:     s.cl.addrs("fms"),
		OSSAddrs:     s.cl.addrs("oss"),
		CacheEntries: s.wl.Spec().CacheEntries,
	})
}

// freshClient dials one more client, which the session closes with the
// others, and returns it as the client list of a serial pass.
func (s *session) freshClient(tr *tracer) ([]*locofs.Client, error) {
	fs, err := s.dial(tr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	s.clients = append(s.clients, fs)
	return []*locofs.Client{fs}, nil
}

// setUp spawns a fresh cluster for the workload, dials one client per lane
// and runs the preload.
func setUp(r *reaper, bin string, wl workload, lanes int) (_ *session, err error) {
	t0 := time.Now()
	cl, err := startCluster(r, bin, wl.Spec().Topo)
	if err != nil {
		return nil, err
	}
	s := &session{wl: wl, cl: cl, hash: newStreamHash()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for i := 0; i < lanes; i++ {
		if _, err := s.freshClient(nil); err != nil {
			return nil, err
		}
	}
	phases := wl.Setup()
	s.hash.add(phases)
	st, err := s.runPhases(phases, s.clients, false, nil)
	if err != nil {
		return nil, err
	}
	if st.Log.failed > 0 {
		return nil, fmt.Errorf("set-up: %d ops failed, first: %w", st.Log.failed, st.Log.firstErr)
	}
	s.setup = time.Since(t0)
	return s, nil
}

func (s *session) close() {
	for _, fs := range s.clients {
		fs.Close()
	}
	s.clients = nil
	s.cl.stop()
}

// roundStat is one executed round: its ops and their results, the wall time
// of its timed phases, and the CPU every process burned — and the
// hypervisor withheld — during them.
type roundStat struct {
	Ops   int
	Wall  time.Duration
	CPU   map[string]time.Duration
	Steal time.Duration
	Log   *opLog
}

// stealLimit is the share of the guest's CPU time the hypervisor may take
// during a round before the round is set aside. On this box rounds with no
// steal run at 11.1k ops/s (file_mix), rounds with 1 tick in 0.8 s at 9.8k
// and with more at 7k; a whole run inside a steal episode measured 6.6k.
// Steal says nothing about the program, so dropping on it cannot flatter it.
const stealLimit = 0.005

func (r roundStat) disturbed() bool {
	return r.Steal.Seconds() > stealLimit*r.Wall.Seconds()*float64(runtime.NumCPU())
}

func (r roundStat) totalCPU() time.Duration {
	var d time.Duration
	for _, v := range r.CPU {
		d += v
	}
	return d
}

// runPhases executes phases in order. Concurrently, lane i runs on
// clients[i mod len(clients)] in its own goroutine, all lanes released
// together; serially, one goroutine runs the lanes one after another on
// clients[0]. Checks run between phases, untimed; a failed check is a model
// mismatch and aborts the run.
func (s *session) runPhases(phases []phase, clients []*locofs.Client, serial bool, tr *tracer) (roundStat, error) {
	st := roundStat{CPU: map[string]time.Duration{}, Log: newOpLog()}
	log := st.Log
	for _, ph := range phases {
		before, err := s.cl.sampleCPU()
		if err != nil {
			return st, err
		}
		t0 := time.Now()
		if serial {
			for _, ops := range ph.Lanes {
				log.run(clients[0], ops, tr)
			}
		} else {
			logs := make([]*opLog, len(ph.Lanes))
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i, ops := range ph.Lanes {
				logs[i] = newOpLog()
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					logs[i].run(clients[i%len(clients)], ops, nil)
				}()
			}
			t0 = time.Now()
			close(start)
			wg.Wait()
			for _, l := range logs {
				log.merge(l)
			}
		}
		st.Wall += time.Since(t0)
		after, err := s.cl.sampleCPU()
		if err != nil {
			return st, err
		}
		for k, v := range after.CPU {
			st.CPU[k] += v - before.CPU[k]
		}
		st.Steal += after.Steal - before.Steal
		st.Ops += ph.ops()
		if ph.Check != nil {
			if err := ph.Check(clients[0]); err != nil {
				return st, fmt.Errorf("%s: after phase %s: %w", s.wl.Spec().Name, ph.Name, err)
			}
		}
	}
	return st, nil
}

// section is a measured stretch of rounds with everything observed from
// outside while it ran.
type section struct {
	Rounds        []roundStat
	Before, After snapshot
	Trips         uint64
	Hits, Misses  uint64
	Retries       float64
}

func (sec *section) ops() int {
	n := 0
	for _, r := range sec.Rounds {
		n += r.Ops
	}
	return n
}

// delta is what one bucket of daemons counted while the section ran.
func (sec *section) delta(bucket string) counters {
	return sec.After.Counters[bucket].minus(sec.Before.Counters[bucket])
}

// kept returns the rounds the timing metrics are computed over: those the
// hypervisor left alone, unless it left fewer than half alone.
func (sec *section) kept() []roundStat {
	var calm []roundStat
	for _, r := range sec.Rounds {
		if !r.disturbed() {
			calm = append(calm, r)
		}
	}
	if 2*len(calm) < len(sec.Rounds) {
		return sec.Rounds
	}
	return calm
}

// mergeLogs merges the results of rounds.
func mergeLogs(rounds []roundStat) *opLog {
	l := newOpLog()
	for _, r := range rounds {
		l.merge(r.Log)
	}
	return l
}

// clientTotals sums what the clients have counted so far: round trips,
// directory-cache hits and misses, and retried RPC attempts.
func clientTotals(clients []*locofs.Client) (trips, hits, misses uint64, retries float64) {
	for _, fs := range clients {
		trips += fs.Trips()
		h, m := fs.CacheStats()
		hits, misses = hits+h, misses+m
		for _, m := range fs.Metrics().Snapshot().Metrics {
			if m.Name == "locofs_client_retries_total" {
				retries += m.Value
			}
		}
	}
	return trips, hits, misses, retries
}

// stealPatience bounds how much longer than asked a section may run to
// replace rounds set aside for steal: 7/5 of its seconds in all.
const stealPatience = 1.4

// measure runs whole rounds on clients until at least minRounds have run
// and the timed phases of undisturbed rounds add up to d.
func (s *session) measure(clients []*locofs.Client, d time.Duration, minRounds int, serial bool, tr *tracer) (*section, error) {
	sec := &section{}
	var err error
	if sec.Before, err = s.cl.sample(); err != nil {
		return nil, err
	}
	trips0, hits0, miss0, retries0 := clientTotals(clients)
	var calm, all time.Duration
	for len(sec.Rounds) < minRounds || (calm < d && float64(all) < stealPatience*float64(d)) {
		phases := s.wl.Round()
		if len(sec.Rounds) == 0 {
			s.hash.add(phases)
		}
		st, err := s.runPhases(phases, clients, serial, tr)
		if err != nil {
			return nil, err
		}
		sec.Rounds = append(sec.Rounds, st)
		all += st.Wall
		if !st.disturbed() {
			calm += st.Wall
		}
	}
	trips, hits, misses, retries := clientTotals(clients)
	sec.Trips, sec.Hits, sec.Misses, sec.Retries = trips-trips0, hits-hits0, misses-miss0, retries-retries0
	if sec.After, err = s.cl.sample(); err != nil {
		return nil, err
	}
	return sec, nil
}

// laneClients returns the clients the workload's rounds run on: one per
// lane, or only the first when all lanes share a client.
func (s *session) laneClients() []*locofs.Client {
	if s.wl.Spec().SharedClient {
		return s.clients[:1]
	}
	return s.clients
}

// perRound reduces the rounds to the median of f over them.
func perRound(rounds []roundStat, f func(roundStat) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndMetrics computes the gated metrics of an untraced section. Each
// is a median — over rounds for rates and CPU, over ops for latency — so
// that a burst of interference on a shared box moves it little.
func endToEndMetrics(sec *section, setups []time.Duration) map[string]float64 {
	ss := make([]float64, len(setups))
	for i, d := range setups {
		ss[i] = d.Seconds()
	}
	kept := sec.kept()
	return map[string]float64{
		"ops_per_s":     perRound(kept, func(r roundStat) float64 { return float64(r.Ops) / r.Wall.Seconds() }),
		"p50_us":        summarize(mergeLogs(kept).all()).P50,
		"cpu_us_per_op": perRound(kept, func(r roundStat) float64 { return us(r.totalCPU()) / float64(r.Ops) }),
		"setup_s":       median(ss),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loadMetrics are the per-layer figures that need load to mean anything:
// CPU, queueing, service time, tail latency, memory. They come from an
// untraced concurrent section.
func loadMetrics(sec *section, into map[string]float64) {
	ops := float64(sec.ops())
	kept := sec.kept()
	cpu := func(bucket string) float64 {
		return perRound(kept, func(r roundStat) float64 { return us(r.CPU[bucket]) / float64(r.Ops) })
	}
	log := mergeLogs(kept)
	into["client.cpu_us_per_op"] = cpu("driver")
	into["client.p99_us"] = summarize(log.all()).P99
	into["client.retries"] = sec.Retries
	for c, name := range classNames {
		into["client."+name+"_p50_us"] = summarize(log.lat[c]).P50
	}
	var total counters
	for _, bucket := range []string{"dms", "dms.follower", "fms", "oss"} {
		total = total.plus(sec.delta(bucket))
	}
	into["rpc.queue_us_per_req"] = ratio(total[cQueueS]*1e6, total[cReqs])
	into["rpc.errors"] = total[cErrs]
	for _, layer := range []string{"fms", "dms"} {
		c := sec.delta(layer)
		into[layer+".cpu_us_per_op"] = cpu(layer)
		into[layer+".service_us_per_req"] = ratio(c[cServiceS]*1e6, c[cReqs])
		into[layer+".rss_mb"] = float64(sec.After.RSS[layer]) / (1 << 20)
	}
	lead := sec.delta("dms")
	into["dms.lease_recalls_per_op"] = ratio(lead[cLeaseRecalls], ops)
	// The partition layer exports no metrics of its own: its cost is what
	// the follower processes burn and what a mutation's service time grows to.
	into["dms.partition.follower_cpu_us_per_op"] = cpu("dms.follower")
	into["dms.partition.mutation_service_us"] = ratio(lead[cMutServiceS]*1e6, lead[cMutReqs])
}

// countMetrics are the per-layer counts. They come from the serial untraced
// pass — one client, one op in flight, a fixed op count — where they repeat
// exactly for one seed.
func countMetrics(sec *section, into map[string]float64) {
	ops := float64(sec.ops())
	into["client.trips_per_op"] = ratio(float64(sec.Trips), ops)
	into["client.dircache_hit_ratio"] = ratio(float64(sec.Hits), float64(sec.Hits+sec.Misses))
	for _, layer := range []string{"fms", "dms"} {
		c := sec.delta(layer)
		into[layer+".reqs_per_op"] = ratio(c[cReqs], ops)
		into[layer+".kv_ops_per_req"] = ratio(c[cKVOps], c[cReqs])
		if layer == "fms" {
			into["fms.kv_bytes_written_per_req"] = ratio(c[cKVBytesWritten], c[cReqs])
		}
	}
}
