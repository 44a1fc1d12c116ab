// Command locofsd runs LocoFS server components over real TCP, so an
// actual multi-process cluster can be deployed, plus a small client mode
// for poking at it.
//
// Server roles:
//
//	locofsd -role dms  -listen :7000
//	locofsd -role fms  -listen :7001 -id 1 [-coupled]
//	locofsd -role oss  -listen :7002
//
// Client:
//
//	locofsd -role client -dms host:7000 -fms host:7001,host:7003 -oss host:7002 \
//	        -cmd "mkdir /a; touch /a/f; ls /a; stat /a/f; write /a/f hello; read /a/f; rm /a/f"
//
// The client role also takes fault-tolerance flags: -op-timeout bounds each
// RPC attempt, -retries and -retry-backoff configure automatic retries
// (non-idempotent operations are deduplicated server-side, so retried
// mutations execute at most once), and -breaker-failures/-breaker-cooldown
// arm a per-server circuit breaker that fails calls fast while a server is
// down. For example:
//
//	locofsd -role client ... -op-timeout 200ms -retries 3 -retry-backoff 10ms \
//	        -breaker-failures 5 -breaker-cooldown 2s
//
// Metadata caching: clients keep a lease-coherent directory cache
// (positive, negative and readdir-listing entries, kept coherent by
// DMS-granted leases — see DESIGN.md), each entry for exactly the lease the
// DMS granted it. The DMS side takes -lease-dur to size the granted leases;
// the client role has no cache flag:
//
//	locofsd -role dms -listen :7000 -lease-dur 30s
//
// Sharded DMS: the directory namespace can be split into replicated
// subtree partitions (DESIGN.md §16). Every DMS process gets the same
// -dms-groups (partition groups separated by ";", replica addresses
// comma-separated leader-first) and -dms-cuts (cut directories, assigned
// round-robin to partitions 1..N-1), plus its own -partition/-replica
// coordinates. A DMS started without -dms-groups is the same partition node
// running the solo map: one partition, one replica, itself. Clients need no
// flag either way: they ask the -dms address — any replica of any partition
// — for the cluster map when they dial (a solo DMS's version-0 map leaves it
// the one route). Note the wire-format flag day: every message header
// carries one cluster-map version field (61-byte header), so servers and
// clients must be built from the same release.
//
// Replication-plane knobs: -dms-log-cap bounds each partition's retained
// op log (the leader truncates entries below the group-wide applied
// watermark once the cap is exceeded; default 4096), and -dms-catchup sets
// how often a follower probes its leader for missed entries, so a replica
// that was excluded after an unreachable spell catches up and rejoins the
// live fan-out set on its own (default 5s; 0 limits catch-up to the
// on-demand triggers: append gaps and partition-map installs).
//
//	locofsd -role dms -listen :7000 -partition 0 -replica 0 \
//	        -dms-groups "h0:7000,h0:7010;h1:7001,h1:7011" -dms-cuts /data
//	locofsd -role dms -listen :7010 -partition 0 -replica 1 -dms-groups ... -dms-cuts /data
//	locofsd -role dms -listen :7001 -partition 1 -replica 0 -dms-groups ... -dms-cuts /data
//	locofsd -role dms -listen :7011 -partition 1 -replica 1 -dms-groups ... -dms-cuts /data
//	locofsd -role client -dms h0:7000 ...
//
// Changing the cluster map: the client role doubles as the coordinator of
// every map change (DESIGN.md §12). Start the new FMS process first, then
// grow the ring from any client (the namespace stays fully readable while
// keys migrate):
//
//	locofsd -role fms -listen :7005 -id 4       # new server, fresh ring ID
//	locofsd -role client ... -cmd "addfms 4 host:7005"
//	locofsd -role client ... -cmd "rmfms 4"     # drain it back out
//
// DMS failover is the same move: once a replica is dead (and only then — a
// dropped leader that still serves would split the partition), drop it from
// the map; dropping a leader promotes the next replica of its group. Point
// -dms at a replica that is still alive:
//
//	locofsd -role client -dms h0:7010 ... -cmd "dropdms h0:7000"
//
// Every role accepts -metrics-addr to expose an admin HTTP endpoint with
// Prometheus-text /metrics (per-op request counts and latency histograms,
// KV engine activity), /debug/vars, /debug/pprof, /debug/traces (span-level
// trace trees, see internal/trace) and /debug/hot (top-K hot metadata keys),
// and -slow to log any request slower than the given threshold with its
// trace id. Span retention is off by default; enable it with
// -trace-sample (keep probability, 1 = every trace) and size the span ring
// with -trace-buf. Slow or failed requests are always retained once
// sampling is on.
//
// SLO monitoring: every role also serves /debug/slo (this process's
// windowed per-op quantiles, burn rates and error budgets, see
// internal/slo) and /debug/cluster (the same merged across this process
// plus every -peers admin endpoint). -window/-window-num size the rotating
// telemetry window behind the time-local quantiles. A standalone health
// check renders the merged table:
//
//	locofsd -role status -peers dms=host:9100,fms0=host:9101,fms1=host:9102
//
// Flight recorder: every role journals typed cluster events (breaker
// flaps, retries, lease recalls, map installs, slow requests; paged at
// /debug/events) and checks the anomaly rules every two seconds. A firing
// captures a diagnostic bundle (the latest at /debug/bundle?last=1; a plain
// GET captures one on demand), spooled as JSON under -flight-dir when set.
// One obs.Process is the whole of it, and obs.Process.Admin builds the
// admin surface (internal/obs).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"locofs/internal/client"
	"locofs/internal/dms"
	"locofs/internal/dms/partition"
	"locofs/internal/fms"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/slo"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
	"locofs/internal/wire"
)

func main() {
	role := flag.String("role", "", "dms | fms | oss | client")
	listen := flag.String("listen", ":7000", "listen address (server roles)")
	id := flag.Int("id", 1, "server id (fms role; must be unique per FMS)")
	coupled := flag.Bool("coupled", false, "coupled file metadata (fms role)")
	dataDir := flag.String("data", "", "data directory for durable metadata (server roles; empty = in-memory)")
	dmsAddr := flag.String("dms", "", "DMS address (client role)")
	fmsAddrs := flag.String("fms", "", "comma-separated FMS addresses in server-id order (client role)")
	ossAddrs := flag.String("oss", "", "comma-separated OSS addresses (client role)")
	cmds := flag.String("cmd", "", "semicolon-separated commands (client role)")
	opTimeout := flag.Duration("op-timeout", 0, "per-attempt RPC deadline (client role; 0 = unbounded)")
	retries := flag.Int("retries", 0, "max automatic retries per call (client role; 0 = default one reconnect retry, negative = none)")
	retryBackoff := flag.Duration("retry-backoff", 0, "base backoff before the first retry, doubling with jitter (client role)")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive failures that trip the per-server circuit breaker (client role; 0 = breaker off)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long a tripped breaker fails fast before probing (client role; 0 = 1s)")
	leaseDur := flag.Duration("lease-dur", 0, "directory lease duration granted to clients (dms role; 0 = default 30s)")
	dmsGroups := flag.String("dms-groups", "", "sharded DMS deployment: semicolon-separated partition groups, each a comma-separated replica address list leader-first (dms role; empty = one partition, one replica: this process)")
	dmsCuts := flag.String("dms-cuts", "", "comma-separated namespace cut directories, assigned round-robin to partitions 1..N-1 (dms role with -dms-groups)")
	dmsPartition := flag.Int("partition", 0, "this node's partition id (dms role with -dms-groups)")
	dmsReplica := flag.Int("replica", 0, "this node's replica slot in its partition group, 0 = leader (dms role with -dms-groups)")
	dmsLogCap := flag.Int("dms-log-cap", 0, "retained op-log entries per DMS partition before the leader truncates below the group-wide applied watermark (dms role with -dms-groups; 0 = default 4096)")
	dmsCatchup := flag.Duration("dms-catchup", 5*time.Second, "how often a follower replica probes its leader for missed log entries so an excluded replica rejoins on its own (dms role with -dms-groups; 0 = on-demand only)")
	metricsAddr := flag.String("metrics-addr", "", "admin HTTP address serving /metrics, /debug/vars and /debug/pprof (empty = disabled)")
	slow := flag.Duration("slow", 0, "log requests slower than this threshold with their trace id (0 = disabled)")
	traceSample := flag.Float64("trace-sample", 0, "probability a trace's spans are retained for /debug/traces (0 = tracing off, 1 = all)")
	traceBuf := flag.Int("trace-buf", trace.DefaultBufSpans, "span ring capacity when tracing is on")
	window := flag.Duration("window", 0, "telemetry sub-window width for time-local quantiles and SLO burn (0 = default 10s)")
	windowNum := flag.Int("window-num", 0, "number of telemetry sub-windows merged per snapshot (0 = default 6)")
	peers := flag.String("peers", "", "comma-separated peer admin endpoints (name=http://host:port or bare URL) merged into /debug/cluster and the status role")
	flightDir := flag.String("flight-dir", "", "directory where anomaly-triggered diagnostic bundles are written (empty = memory only, latest at /debug/bundle)")
	flag.Parse()

	// With -data, metadata survives restarts: mutations are WAL-logged and
	// periodically snapshotted (see kv.Persistent).
	durable := func(name string, inner kv.Store) kv.Store {
		if *dataDir == "" {
			return inner
		}
		p, err := kv.OpenPersistent(filepath.Join(*dataDir, name), inner)
		if err != nil {
			fmt.Fprintln(os.Stderr, "locofsd:", err)
			os.Exit(1)
		}
		p.SnapshotEvery = 100000
		return p
	}

	af := adminFlags{
		metricsAddr: *metricsAddr,
		peers:       parsePeers(*peers),
		obs: obs.Config{
			Tracer: trace.New(trace.Config{Sample: *traceSample, BufSpans: *traceBuf}),
			Dir:    *flightDir,
			Slow:   *slow,
			Window: telemetry.WindowConfig{Width: *window, Num: *windowNum},
		},
	}
	switch *role {
	case "dms":
		// The DMS is always served by a partition node. Without -dms-groups
		// it runs the solo map (Map nil) — one partition, one replica — which
		// needs no advertised address: -listen 0.0.0.0:7000 just works.
		name := "dms"
		opts := dms.Options{CheckPermissions: true, LeaseDur: *leaseDur}
		cfg := partition.Config{
			Dialer:       netsim.TCPDialer{},
			LogCap:       *dmsLogCap,
			CatchupEvery: *dmsCatchup,
		}
		if *dmsGroups != "" {
			name = fmt.Sprintf("dms-p%d-r%d", *dmsPartition, *dmsReplica)
			// Replicas of one partition must produce byte-identical inodes
			// from log replay, so they share a deterministic ServerID (high
			// bit keeps it out of the FMS id range).
			opts.ServerID = 0x80000000 | uint32(*dmsPartition)
			cfg.PID, cfg.Index = uint32(*dmsPartition), *dmsReplica
			var err error
			if cfg.Map, err = parseClusterMap(*dmsGroups, *dmsCuts, *dmsPartition, *dmsReplica); err != nil {
				fmt.Fprintln(os.Stderr, "locofsd:", err)
				os.Exit(2)
			}
		}
		store := kv.Instrument(durable(name, kv.NewBTreeStore()), kv.RAM)
		p, h := af.observe(name, obs.Export{Objectives: slo.ServerObjectives(), Store: store})
		opts.Store, opts.Obs, cfg.Obs = store, h, h
		cfg.DMS = dms.New(opts)
		af.serve(p, h, *listen, cfg.DMS.HotKeys(), partition.New(cfg).Attach)
	case "fms":
		name := fmt.Sprintf("fms-%d", *id)
		store := kv.Instrument(durable(name, kv.NewHashStore()), kv.RAM)
		p, h := af.observe(name, obs.Export{Objectives: slo.ServerObjectives(), Store: store})
		f := fms.New(fms.Options{Store: store, ServerID: uint32(*id), Coupled: *coupled, CheckPermissions: true, Obs: h})
		af.serve(p, h, *listen, f.HotKeys(), f.Attach)
	case "oss":
		store := kv.Instrument(durable("oss", kv.NewHashStore()), kv.RAM)
		p, h := af.observe("oss", obs.Export{Objectives: slo.ServerObjectives(), Store: store})
		af.serve(p, h, *listen, nil, objstore.New(store).Attach)
	case "client":
		if *dmsAddr == "" || *fmsAddrs == "" || *ossAddrs == "" {
			fmt.Fprintln(os.Stderr, "locofsd client: -dms, -fms and -oss are required")
			os.Exit(2)
		}
		p, h := af.observe("client", obs.Export{Objectives: slo.ClientObjectives()})
		cfg := clientConfig(*dmsAddr, *fmsAddrs, *ossAddrs, h)
		// Fault-tolerance policy.
		cfg.OpTimeout = *opTimeout
		cfg.Retry = client.RetryPolicy{Max: *retries, Base: *retryBackoff}
		cfg.Breaker = client.BreakerConfig{Threshold: *breakerFailures, Cooldown: *breakerCooldown}
		af.runClient(p, h, cfg, *cmds)
	case "status":
		runStatus(af.peers)
	default:
		fmt.Fprintln(os.Stderr, "locofsd: -role must be dms, fms, oss, client or status")
		flag.Usage()
		os.Exit(2)
	}
}

// adminFlags carries the observability options shared by every role.
type adminFlags struct {
	metricsAddr string
	peers       []peer
	// obs configures the process's observability and flight recorder: the
	// tracer (nil when -trace-sample is 0), where anomaly bundles are
	// spooled, the slow threshold and the telemetry window. observe names
	// it.
	obs obs.Config
}

// observe assembles this process's observability (DESIGN.md "Building a
// server"): a locofsd is one obs.Process with one handle, both called name,
// so that handle's registry is where the process-wide journal and recorder
// counters go.
func (af adminFlags) observe(name string, x obs.Export) (*obs.Process, *obs.Handle) {
	af.obs.Name = name
	p := obs.New(af.obs)
	return p, p.For(name, x)
}

// admin names h's server as what this process reports about itself, judged
// against objs (obs.Process.Admin), and with -metrics-addr serves the admin
// surface; /debug/cluster merges in every -peers endpoint. who prefixes what
// it prints.
func (af adminFlags) admin(who string, p *obs.Process, h *obs.Handle, objs []slo.Objective, mapVer func() uint64, hot *trace.TopK) {
	mux := p.Admin(h, objs, mapVer, hot, peerSources(af.peers))
	if af.metricsAddr == "" {
		return
	}
	l, err := net.Listen("tcp", af.metricsAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: metrics: %v\n", who, err)
		os.Exit(1)
	}
	go func() { _ = http.Serve(l, mux) }()
	fmt.Printf("%s: metrics on http://%s/metrics\n", who, l.Addr())
}

// parseClusterMap builds the version-1 cluster map every node of a sharded
// deployment starts from: groups is the -dms-groups spec (semicolon-
// separated partitions, comma-separated replica addresses leader-first),
// cuts the -dms-cuts list assigned round-robin to partitions 1..N-1 in
// order (partition.NewMap, as the in-process cluster). It names no FMS set:
// clients keep the list they were configured with until the first addfms.
// pid and rep must name a replica of the map.
func parseClusterMap(groups, cuts string, pid, rep int) (*wire.ClusterMap, error) {
	var gs [][]string
	for _, g := range strings.Split(groups, ";") {
		addrs := splitList(g)
		if len(addrs) == 0 {
			return nil, fmt.Errorf("-dms-groups: empty partition group in %q", groups)
		}
		gs = append(gs, addrs)
	}
	if pid < 0 || pid >= len(gs) {
		return nil, fmt.Errorf("-partition %d out of range for %d groups", pid, len(gs))
	}
	if rep < 0 || rep >= len(gs[pid]) {
		return nil, fmt.Errorf("-replica %d out of range for partition %d's %d replicas", rep, pid, len(gs[pid]))
	}
	return partition.NewMap(gs, splitList(cuts))
}

// splitList splits a comma-separated flag value, dropping blanks.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// peer is one -peers entry: a display name and its /debug/slo URL.
type peer struct {
	name, url string
}

// parsePeers parses the -peers flag: comma-separated "name=url" pairs or
// bare URLs (then the URL doubles as the name). A bare host:port gains
// http:// and URLs without a path gain /debug/slo.
func parsePeers(s string) []peer {
	var out []peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p := peer{name: part, url: part}
		if name, url, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			p = peer{name: name, url: url}
		}
		if !strings.Contains(p.url, "://") {
			p.url = "http://" + p.url
		}
		if _, rest, _ := strings.Cut(p.url, "://"); !strings.Contains(rest, "/") {
			p.url += "/debug/slo"
		}
		out = append(out, p)
	}
	return out
}

// peerSources converts the -peers list into HTTP status sources.
func peerSources(peers []peer) []obs.StatusSource {
	out := make([]obs.StatusSource, 0, len(peers))
	for _, p := range peers {
		out = append(out, obs.HTTPSource(p.name, p.url, 0))
	}
	return out
}

// serve runs one server role, observed through h and attached by attach,
// until interrupted. hot (nil ok) is the role's hot-key sketch.
func (af adminFlags) serve(p *obs.Process, h *obs.Handle, addr string, hot *trace.TopK, attach func(*rpc.Server)) {
	l, err := netsim.ListenTCP(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locofsd:", err)
		os.Exit(1)
	}
	rs := rpc.New(rpc.Config{Obs: h})
	af.admin("locofsd", p, h, slo.ServerObjectives(), rs.MapVer, hot)
	attach(rs)
	go rs.Serve(l)
	p.Start()
	fmt.Printf("locofsd: serving on %s\n", l.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("locofsd: shutting down")
	p.Close()
	rs.Shutdown()
}

// runStatus scrapes every -peers endpoint, merges the statuses, and prints
// the cluster-health table — `locofsd -role status -peers dms=host:9100,...`.
func runStatus(peers []peer) {
	if len(peers) == 0 {
		fmt.Fprintln(os.Stderr, "locofsd status: -peers is required (comma-separated name=http://host:port admin endpoints)")
		os.Exit(2)
	}
	cs := obs.Poll(peerSources(peers), nil)
	cs.Format(os.Stdout)
	if len(cs.Unreachable) == len(peers) {
		os.Exit(1)
	}
}

// clientConfig is the client role's dial configuration: the servers the
// -dms, -fms and -oss flags name (comma-separated lists, blanks dropped),
// over TCP, observed through h.
func clientConfig(dmsAddr, fmsList, ossList string, h *obs.Handle) client.Config {
	return client.Config{
		Dialer:   netsim.TCPDialer{},
		DMSAddr:  dmsAddr,
		FMSAddrs: splitList(fmsList),
		OSSAddrs: splitList(ossList),
		Obs:      h,
	}
}

// runClient connects to a TCP cluster and executes simple commands.
func (af adminFlags) runClient(p *obs.Process, h *obs.Handle, cfg client.Config, cmds string) {
	af.admin("locofsd client", p, h, slo.ClientObjectives(), nil, nil)
	p.Start()
	defer p.Close()
	cl, err := client.Dial(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locofsd client:", err)
		os.Exit(1)
	}
	defer cl.Close()

	for _, raw := range strings.Split(cmds, ";") {
		fields := strings.Fields(strings.TrimSpace(raw))
		if len(fields) == 0 {
			continue
		}
		if err := execCmd(cl, fields); err != nil {
			fmt.Fprintf(os.Stderr, "locofsd client: %s: %v\n", strings.Join(fields, " "), err)
			os.Exit(1)
		}
	}
}

func execCmd(cl *client.Client, fields []string) error {
	cmd := fields[0]
	arg := func(i int) string {
		if i < len(fields) {
			return fields[i]
		}
		return ""
	}
	switch cmd {
	case "mkdir":
		return cl.Mkdir(arg(1), 0o755)
	case "rmdir":
		return cl.Rmdir(arg(1))
	case "touch":
		return cl.Create(arg(1), 0o644)
	case "rm":
		return cl.Remove(arg(1))
	case "ls":
		ents, err := cl.Readdir(arg(1))
		if err != nil {
			return err
		}
		for _, e := range ents {
			kind := "f"
			if e.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %s\n", kind, e.Name)
		}
		return nil
	case "stat":
		a, err := cl.Stat(arg(1))
		if err != nil {
			return err
		}
		fmt.Printf("mode=%o uid=%d gid=%d size=%d uuid=%v dir=%v\n",
			a.Mode, a.UID, a.GID, a.Size, a.UUID, a.IsDir)
		return nil
	case "write":
		f, err := cl.Open(arg(1), true)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteAt([]byte(strings.Join(fields[2:], " ")), 0)
		return err
	case "read":
		f, err := cl.Open(arg(1), false)
		if err != nil {
			return err
		}
		defer f.Close()
		buf := make([]byte, f.Size())
		n, err := f.ReadAt(buf, 0)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", buf[:n])
		return nil
	case "mv":
		if err := cl.RenameFile(arg(1), arg(2)); err == nil {
			return nil
		}
		_, err := cl.RenameDir(arg(1), arg(2))
		return err
	case "addfms", "rmfms":
		id, err := strconv.Atoi(arg(1))
		if err != nil {
			return fmt.Errorf("%s: ring ID %q: %w", cmd, arg(1), err)
		}
		var rep *client.RebalanceReport
		if cmd == "addfms" {
			if arg(2) == "" {
				return fmt.Errorf("addfms: usage: addfms <ring-id> <addr>")
			}
			rep, err = cl.AddFMS(int32(id), arg(2))
		} else {
			rep, err = cl.RemoveFMS(int32(id))
		}
		if err != nil {
			return err
		}
		fmt.Printf("map version %d -> %d: moved %d/%d files in %d scan passes%s\n",
			rep.FromVer, rep.ToVer, rep.Moved, rep.Total, rep.Passes, unreachedNote(rep.Unreached))
		return nil
	case "dropdms":
		m, unreached, err := cl.DropDMSReplica(arg(1))
		if err != nil {
			return err
		}
		fmt.Printf("map version %d: dropped %s, DMS groups now %v%s\n", m.Ver, arg(1), m.Groups, unreachedNote(unreached))
		return nil
	}
	return fmt.Errorf("unknown command %q (mkdir rmdir touch rm ls stat write read mv addfms rmfms dropdms)", cmd)
}

// unreachedNote renders the best-effort map receivers a change did not
// reach, which catch up on their own.
func unreachedNote(addrs []string) string {
	if len(addrs) == 0 {
		return ""
	}
	return "; not reached (they pull the map when they next catch up): " + strings.Join(addrs, ", ")
}
