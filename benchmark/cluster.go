package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDirName is where everything the benchmark builds or writes goes. It
// is inside the checkout (the contract forbids writing elsewhere) and named
// in the root .gitignore.
const buildDirName = ".bench_build"

// findRoot walks up from the working directory to the module root, so the
// benchmark works from the repo root (`go run ./benchmark`) and from its
// own directory alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module locofs\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no locofs go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/locofsd from source into the build directory and
// returns the binary's path. With a warm build cache this is a no-op check.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDirName, "locofsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/locofsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/locofsd: %w\n%s", err, out)
	}
	return bin, nil
}

// reaper owns every child process: nothing is started except through it,
// and killAll leaves none behind — on normal exit, on a panic unwinding
// main, and on SIGINT/SIGTERM (see main). Pdeathsig covers the one path
// deferred code cannot: the benchmark itself being killed.
type reaper struct {
	mu   sync.Mutex
	live map[*exec.Cmd]struct{}
}

func newReaper() *reaper { return &reaper{live: make(map[*exec.Cmd]struct{})} }

func (r *reaper) start(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	r.live[cmd] = struct{}{}
	return nil
}

// kill stops one child and waits until it has ended.
func (r *reaper) kill(cmd *exec.Cmd) {
	r.mu.Lock()
	_, ok := r.live[cmd]
	delete(r.live, cmd)
	r.mu.Unlock()
	if !ok {
		return
	}
	_ = cmd.Process.Kill() // already-exited is the only failure, and fine
	_ = cmd.Wait()         // the exit status of a killed child carries nothing
}

func (r *reaper) killAll() {
	r.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(r.live))
	for c := range r.live {
		cmds = append(cmds, c)
	}
	r.mu.Unlock()
	for _, c := range cmds {
		r.kill(c)
	}
}

// proc is one running locofsd.
type proc struct {
	layer    string // "dms", "fms" or "oss": the ledger layer its cost is booked to
	follower bool   // a non-leader DMS replica (booked to dms.partition)
	cmd      *exec.Cmd
	addr     string // RPC address parsed from "serving on"
	metrics  string // URL parsed from "metrics on"
}

// topology names the two deployments the workloads run on.
type topology int

const (
	topoPlain   topology = iota // 1 DMS, 2 FMS, 1 idle OSS
	topoSharded                 // 2 DMS partitions x 2 replicas cut at /b, 2 FMS, 1 OSS
)

const (
	fmsCount     = 2
	dmsParts     = 2
	dmsReplicas  = 2
	shardCutDir  = "/b"
	readyTimeout = 20 * time.Second
)

// cluster is a set of real locofsd processes on 127.0.0.1.
type cluster struct {
	reaper *reaper
	procs  []*proc
	topo   topology
	http   *http.Client
}

// spawn starts one daemon and blocks until it has printed both its
// addresses — the daemon prints "serving on" last, after the listener is
// bound, so no sleep or probe is needed.
func (c *cluster) spawn(bin, layer string, follower bool, args ...string) error {
	args = append(args, "-metrics-addr", "127.0.0.1:0")
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// A plain os.Pipe rather than StdoutPipe: cmd.Wait must not race the
	// reader, and the reader ends by itself when the child's end closes.
	pr, pw, err := os.Pipe()
	if err != nil {
		return err
	}
	cmd.Stdout = pw
	err = c.reaper.start(cmd)
	pw.Close()
	if err != nil {
		pr.Close()
		return fmt.Errorf("start %s: %w", layer, err)
	}
	p := &proc{layer: layer, follower: follower, cmd: cmd}
	c.procs = append(c.procs, p)
	ready := make(chan error, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "locofsd: metrics on "); ok {
				p.metrics = a
			}
			if a, ok := strings.CutPrefix(line, "locofsd: serving on "); ok && !sent {
				p.addr = a
				sent = true
				ready <- nil
			}
		}
		if !sent {
			ready <- fmt.Errorf("%s exited before serving", layer)
		}
		_, _ = io.Copy(io.Discard, pr) // keep the pipe drained after a scanner error
	}()
	select {
	case err := <-ready:
		if err != nil {
			return err
		}
	case <-time.After(readyTimeout):
		return fmt.Errorf("%s not ready after %v", layer, readyTimeout)
	}
	if p.metrics == "" {
		return fmt.Errorf("%s printed no metrics address", layer)
	}
	return nil
}

// freeAddrs reserves n loopback ports. The sharded DMS needs every replica's
// address in every replica's -dms-groups before any of them starts, so these
// cannot be ":0"; the ports are released just before the daemons bind them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls[i], addrs[i] = l, l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs, nil
}

// startCluster spawns a fresh cluster. Servers run in memory (no -data, so
// there is no flush policy to state) with default flags. On error whatever
// was started is stopped again.
func startCluster(r *reaper, bin string, topo topology) (*cluster, error) {
	c := &cluster{reaper: r, topo: topo, http: &http.Client{Timeout: 10 * time.Second}}
	var err error
	if topo == topoPlain {
		err = c.spawn(bin, "dms", false, "-role", "dms", "-listen", "127.0.0.1:0")
	} else {
		err = c.spawnShardedDMS(bin)
	}
	for i := 0; i < fmsCount && err == nil; i++ {
		err = c.spawn(bin, "fms", false, "-role", "fms", "-listen", "127.0.0.1:0", "-id", fmt.Sprint(i+1))
	}
	if err == nil {
		err = c.spawn(bin, "oss", false, "-role", "oss", "-listen", "127.0.0.1:0")
	}
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// spawnShardedDMS starts every replica of every partition, leaders first
// within each group, all with the same group map.
func (c *cluster) spawnShardedDMS(bin string) error {
	addrs, err := freeAddrs(dmsParts * dmsReplicas)
	if err != nil {
		return err
	}
	groups := make([]string, dmsParts)
	for p := range groups {
		groups[p] = strings.Join(addrs[p*dmsReplicas:(p+1)*dmsReplicas], ",")
	}
	for p := 0; p < dmsParts; p++ {
		for rep := 0; rep < dmsReplicas; rep++ {
			err := c.spawn(bin, "dms", rep > 0, "-role", "dms",
				"-listen", addrs[p*dmsReplicas+rep],
				"-partition", fmt.Sprint(p), "-replica", fmt.Sprint(rep),
				"-dms-groups", strings.Join(groups, ";"), "-dms-cuts", shardCutDir)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// stop kills and reaps every daemon of this cluster.
func (c *cluster) stop() {
	for _, p := range c.procs {
		c.reaper.kill(p.cmd)
	}
	c.procs = nil
	c.http.CloseIdleConnections()
}

// addrs returns the RPC addresses of one layer, in spawn order. For the
// sharded DMS the first is partition 0's leader, the client's bootstrap.
func (c *cluster) addrs(layer string) []string {
	var out []string
	for _, p := range c.procs {
		if p.layer == layer {
			out = append(out, p.addr)
		}
	}
	return out
}

// layerOf maps an RPC address to the layer serving it ("" if unknown).
func (c *cluster) layerOf(addr string) string {
	for _, p := range c.procs {
		if p.addr == addr {
			return p.layer
		}
	}
	return ""
}

// counters is what one daemon's /metrics contributes to the ledger.
type counters [numCounters]float64

const (
	cReqs = iota
	cErrs
	cServiceS // histogram sum, seconds
	cQueueS   // histogram sum, seconds
	cMutServiceS
	cMutReqs // DMS mutations only, like cMutServiceS
	cKVOps
	cKVBytesWritten
	cLeaseRecalls
	numCounters
)

func (a counters) plus(b counters) counters {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

func (a counters) minus(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// dmsMutations are the ops a sharded DMS sends through its replicated log.
var dmsMutations = []string{"Mkdir", "Rmdir", "ChmodDir", "ChownDir", "RenameDir"}

func countersFrom(samples []promSample) counters {
	c := counters{
		cReqs:           promSum(samples, "locofs_rpc_requests_total", nil),
		cErrs:           promSum(samples, "locofs_rpc_errors_total", nil),
		cServiceS:       promSum(samples, "locofs_rpc_service_seconds_sum", nil),
		cQueueS:         promSum(samples, "locofs_rpc_queue_seconds_sum", nil),
		cKVOps:          promSum(samples, "locofs_kv_ops_total", nil),
		cKVBytesWritten: promSum(samples, "locofs_kv_bytes_total", map[string]string{"dir": "written"}),
		cLeaseRecalls:   promSum(samples, "locofs_dms_lease_recalls_total", nil),
	}
	for _, op := range dmsMutations {
		l := map[string]string{"op": op}
		c[cMutServiceS] += promSum(samples, "locofs_rpc_service_seconds_sum", l)
		c[cMutReqs] += promSum(samples, "locofs_rpc_service_seconds_count", l)
	}
	return c
}

// snapshot is the cluster's cost so far, booked per ledger layer.
type snapshot struct {
	CPU      map[string]time.Duration // "dms", "dms.follower", "fms", "oss", "driver"
	Steal    time.Duration            // CPU time the hypervisor withheld from the guest
	RSS      map[string]int64
	Counters map[string]counters // "dms" (leaders), "dms.follower", "fms", "oss"
}

func (p *proc) bucket() string {
	if p.follower {
		return "dms.follower"
	}
	return p.layer
}

// sampleCPU reads /proc for every daemon, the driver itself and the guest's
// steal time. It is cheap enough to call at every phase boundary.
func (c *cluster) sampleCPU() (snapshot, error) {
	s := snapshot{CPU: map[string]time.Duration{}, RSS: map[string]int64{}}
	self, err := readProc(os.Getpid())
	if err != nil {
		return s, err
	}
	s.CPU["driver"], s.RSS["driver"] = self.CPU, self.RSS
	if s.Steal, err = readSteal(); err != nil {
		return s, err
	}
	for _, p := range c.procs {
		ps, err := readProc(p.cmd.Process.Pid)
		if err != nil {
			return s, fmt.Errorf("%s: %w", p.layer, err)
		}
		s.CPU[p.bucket()] += ps.CPU
		s.RSS[p.bucket()] += ps.RSS
	}
	return s, nil
}

// sample is sampleCPU plus a scrape of every daemon's /metrics.
func (c *cluster) sample() (snapshot, error) {
	s, err := c.sampleCPU()
	if err != nil {
		return s, err
	}
	s.Counters = map[string]counters{}
	for _, p := range c.procs {
		resp, err := c.http.Get(p.metrics)
		if err != nil {
			return s, err
		}
		samples, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return s, fmt.Errorf("%s: %w", p.metrics, err)
		}
		s.Counters[p.bucket()] = s.Counters[p.bucket()].plus(countersFrom(samples))
	}
	return s, nil
}
