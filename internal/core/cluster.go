// Package core assembles LocoFS deployments: the Directory Metadata Server
// (one partition node by default, a sharded and replicated set on request), a
// configurable number of File Metadata Servers, and object store servers,
// wired to clients over a simulated-latency fabric or real TCP.
// It is the top of the LocoFS stack and the entry point used by examples,
// experiments, and the command-line tools.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"locofs/internal/client"
	"locofs/internal/dms"
	"locofs/internal/dms/partition"
	"locofs/internal/flight"
	"locofs/internal/fms"
	"locofs/internal/fspath"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/rpc"
	"locofs/internal/slo"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
	"locofs/internal/wire"
)

// Options configures a cluster.
type Options struct {
	// FMSCount is the number of file metadata servers (>= 1). The paper
	// scales this from 1 to 16.
	FMSCount int
	// OSSCount is the number of object store servers (>= 1).
	OSSCount int
	// Link is the modeled network link (e.g. netsim.Paper1GbE), used for
	// virtual-time latency accounting on every client. The zero value
	// models a zero-latency loopback — the co-located setup of Fig 10.
	// The in-process transport itself always runs at loopback speed; see
	// rpc.Client.SetLink.
	Link netsim.LinkConfig
	// CoupledFileMetadata runs every FMS in coupled-inode mode (LocoFS-CF).
	CoupledFileMetadata bool
	// DMSOnHashStore runs the DMS on a hash store instead of the B+ tree
	// (the Fig 14 "hash" rename mode).
	DMSOnHashStore bool
	// DMSPartitions shards the directory namespace across this many DMS
	// partitions (DESIGN.md §16). Default/0/1 is the paper's single DMS:
	// one partition. Partition 0 is the residual partition
	// (it owns the root); partition i >= 1 owns the proper descendants of
	// DMSCuts[i-1].
	DMSPartitions int
	// DMSCuts lists the cut directories — at least one per partition
	// beyond the first (len >= DMSPartitions-1), assigned round-robin to
	// partitions 1..DMSPartitions-1 in order, so a partition may own
	// several subtrees. A cut directory's own inode stays with its
	// parent's partition; create it like any directory before using its
	// subtree.
	DMSCuts []string
	// DMSReplicas is the replica-group size of each DMS partition
	// (default 1). With more than one, each partition runs a leader and
	// followers behind a replicated op log and FailoverDMS can promote a
	// follower after killing the leader.
	DMSReplicas int
	// DMSLogCap bounds each partition's retained op log (and, through it,
	// the dedup-replay table): the leader prunes entries below the
	// group-wide applied watermark once more than this many are held.
	// 0 = partition.DefaultLogCap.
	DMSLogCap int
	// DMSRepTimeout bounds each replication RPC; a follower that cannot
	// ack within it is excluded from the live fan-out set and must catch
	// up to rejoin. 0 = partition.DefaultRepTimeout.
	DMSRepTimeout time.Duration
	// CheckPermissions enables the ancestor ACL walk (on in the paper; the
	// work Fig 13 measures).
	CheckPermissions bool
	// DisableClientCache turns new clients' directory caches off
	// (LocoFS-NC). Individual clients can override via ClientConfig.
	DisableClientCache bool
	// Lease is the client cache lease (default 30 s). It also sets the
	// DMS's granted lease duration, so coherent clients and the server's
	// suppression horizon agree.
	Lease time.Duration
	// DisableLeaseCoherence reverts new clients' directory caches to
	// TTL-only semantics (see client.Config.DisableLeaseCoherence).
	// Individual clients can override via ClientConfig.
	DisableLeaseCoherence bool
	// BlockSize is the object-store block size stamped on new files
	// (default fms.DefaultBlockSize).
	BlockSize uint32
	// CostModel, when non-nil, prices each request's service time from the
	// exact KV work it performed (see KVCost). Experiments pass
	// &PaperKVCost so LocoFS's server-side costs reflect the paper's
	// metadata nodes; when nil (tests), service time is wall-clock
	// measured and unused.
	CostModel *KVCost
	// Tracer receives every server's request spans. Because the cluster is
	// in-process, sharing the same tracer with clients (ClientConfig.Tracer)
	// yields complete client+server span trees in one ring. Nil disables
	// server-side tracing.
	Tracer *trace.Tracer
	// Window configures the rotating telemetry window on every server
	// registry (time-local quantiles, SLO burn). The zero value keeps the
	// telemetry package defaults (6 × 10 s).
	Window telemetry.WindowConfig
	// FlightDir spools the always-on flight recorder's anomaly-triggered
	// diagnostic bundles to disk ("" = memory only).
	FlightDir string
}

// KVCost prices Kyoto-Cabinet-style storage work on the paper's metadata
// nodes (8-core 2.5 GHz Opteron). A request's modeled service time is
//
//	Fixed + reads×ReadOp + writes×WriteOp + scans×ScanRec + KB-moved×PerKB
//
// computed from exact per-request deltas of the server's kv.Counters. The
// pricing is deterministic and immune to CPU contention on the
// reproduction machine, and it preserves the real cost structure the paper
// exploits: small fixed-length decoupled values cost less per update than
// large coupled ones.
type KVCost struct {
	// Fixed is the per-request protocol/dispatch overhead.
	Fixed time.Duration
	// ReadOp is the cost of one KV point read (the paper: "the latency of
	// a local get operation is 4 µs", §2.2.1).
	ReadOp time.Duration
	// WriteOp is the cost of one KV point write.
	WriteOp time.Duration
	// PatchOp is the cost of an in-place fixed-offset field write — the
	// serialization-free update of §3.3.3, cheaper than a full record
	// write because nothing is re-encoded or re-inserted.
	PatchOp time.Duration
	// ScanRec is the cost per record visited by an ordered scan.
	ScanRec time.Duration
	// PerKB is the (de)serialization/memory cost per KB moved.
	PerKB time.Duration
}

// PaperKVCost is the calibration used by the experiments. With it, one
// LocoFS metadata server saturates near the paper's ~100K create IOPS.
var PaperKVCost = KVCost{
	Fixed:   20 * time.Microsecond,
	ReadOp:  4 * time.Microsecond,
	WriteOp: 3 * time.Microsecond,
	PatchOp: 1500 * time.Nanosecond,
	ScanRec: time.Microsecond,
	PerKB:   10 * time.Microsecond,
}

// Price converts KV-activity deltas into a service time.
func (k KVCost) Price(reads, writes, patches, scans, bytes uint64) time.Duration {
	return k.Fixed +
		time.Duration(reads)*k.ReadOp +
		time.Duration(writes)*k.WriteOp +
		time.Duration(patches)*k.PatchOp +
		time.Duration(scans)*k.ScanRec +
		time.Duration(bytes)*k.PerKB/1024
}

// serviceFunc builds an rpc.ServiceFunc pricing requests against the given
// store's counters. Requests on the server are serialized so per-request
// deltas are exact — harmless, since throughput is modeled analytically.
func (k KVCost) serviceFunc(c *kv.Counters) rpc.ServiceFunc {
	var mu sync.Mutex
	return func(op wire.Op, run func()) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		before := c.Snapshot()
		run()
		after := c.Snapshot()
		return k.Price(after.Gets-before.Gets, after.Writes()-before.Writes(),
			after.Patches-before.Patches, after.Scans-before.Scans,
			after.Bytes()-before.Bytes())
	}
}

func (o Options) withDefaults() Options {
	if o.FMSCount <= 0 {
		o.FMSCount = 1
	}
	if o.OSSCount <= 0 {
		o.OSSCount = 1
	}
	if o.DMSPartitions <= 0 {
		o.DMSPartitions = 1
	}
	if o.DMSReplicas <= 0 {
		o.DMSReplicas = 1
	}
	return o
}

// Cluster is a running LocoFS deployment on an in-process network.
type Cluster struct {
	opts Options
	net  *netsim.Network

	// DMS and DMSStore are the directory metadata server and its store:
	// aliases of the current leader of partition 0 (the residual
	// partition), repointed by FailoverDMS.
	DMS      *dms.Server
	DMSStore *kv.Instrumented
	// DMSNodes holds each partition's live replica nodes leader-first
	// (mirroring the partition map's groups). Tests use it to reach a
	// leader's crash hooks; FailoverDMS trims it.
	DMSNodes [][]*partition.Node
	FMS      []*fms.Server
	OSS      []*objstore.Server

	// Metrics holds one telemetry registry per server (keyed by the
	// server's fabric address: "dms", "fms-0", ..., "oss-0", ...), each
	// base-labeled server=<addr>, recording per-op request counts and
	// service/queue latency histograms.
	Metrics map[string]*telemetry.Registry

	// Flight is the cluster's black-box recorder: one shared event journal
	// every server and cluster-dialed client emits into, plus the anomaly
	// engine and bundle capture over it. Always present; Start does not
	// launch background polling (call Flight.Start, or Flight.Poll from a
	// deterministic test loop).
	Flight *flight.Recorder

	rpcServers []*rpc.Server
	rsByAddr   map[string]*rpc.Server
	ossAddrs   []string

	// mu guards the mutable membership state below. members is the live
	// FMS set (stable ring IDs, never reused); nextFMSID is the next fresh
	// ID an AddFMS will assign. clientRegs tracks the registries of clients
	// this cluster dialed (deduped), so client-side telemetry — dircache
	// counters, breaker transitions, RTT windows — joins the cluster status
	// merge.
	mu         sync.Mutex
	fmsAddrs   []string
	members    []wire.Member
	nextFMSID  int32
	epoch      uint64
	clientRegs []*telemetry.Registry

	// DMS partition state (DESIGN.md §16), guarded by mu after Start.
	// dmsGroups mirrors the current partition map's replica groups
	// (leader first); dmsStores parallels DMSNodes; dmsAllNodes keeps every
	// node ever started so Close can release peer connections of replaced
	// leaders too.
	dmsCuts     []wire.PartCut
	dmsGroups   [][]string
	dmsStores   [][]*kv.Instrumented
	dmsAllNodes []*partition.Node
	pmVer       uint64
}

// Start builds and starts a cluster.
func Start(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	c := &Cluster{
		opts:     opts,
		net:      netsim.NewNetwork(netsim.Loopback),
		Metrics:  make(map[string]*telemetry.Registry),
		rsByAddr: make(map[string]*rpc.Server),
	}

	// Black-box flight recorder: one journal shared by every server (and
	// every client this cluster dials), an anomaly engine fed from the
	// cluster-wide SLO merge, and bundle capture. Safe to build before the
	// servers — the SLO feed only runs when Poll/Start is invoked, and by
	// then the status sources exist.
	c.Flight = flight.New(flight.Config{
		Server:  "cluster",
		Journal: flight.NewJournal(0),
		Tracer:  opts.Tracer,
		SLO:     func() []slo.ClassStatus { return c.ClusterStatus().SLO },
		Extra: func() map[string]any {
			c.mu.Lock()
			defer c.mu.Unlock()
			return map[string]any{
				"epoch":   c.epoch,
				"members": append([]wire.Member{}, c.members...),
			}
		},
		Dir: opts.FlightDir,
	})

	// Directory metadata service: DMSPartitions x DMSReplicas partition
	// nodes (DESIGN.md §16) — one node when both are 1.
	if len(opts.DMSCuts) < opts.DMSPartitions-1 {
		return nil, fmt.Errorf("core: %d DMS partitions need at least %d cut directories, got %d",
			opts.DMSPartitions, opts.DMSPartitions-1, len(opts.DMSCuts))
	}
	if opts.DMSPartitions == 1 && len(opts.DMSCuts) > 0 {
		return nil, fmt.Errorf("core: DMS cuts given but only one partition configured")
	}
	for i, d := range opts.DMSCuts {
		cd, err := fspath.Clean(d)
		if err != nil || cd == "/" {
			return nil, fmt.Errorf("core: invalid DMS cut %q", d)
		}
		for _, prev := range c.dmsCuts {
			if prev.Dir == cd {
				return nil, fmt.Errorf("core: duplicate DMS cut %q", cd)
			}
		}
		c.dmsCuts = append(c.dmsCuts, wire.PartCut{Dir: cd, PID: uint32(i%(opts.DMSPartitions-1)) + 1})
	}
	c.dmsGroups = make([][]string, opts.DMSPartitions)
	for pid := range c.dmsGroups {
		for rep := 0; rep < opts.DMSReplicas; rep++ {
			c.dmsGroups[pid] = append(c.dmsGroups[pid], dmsAddr(pid, rep))
		}
	}
	c.pmVer = 1
	pm := &wire.PartMap{Ver: c.pmVer, Cuts: c.dmsCuts, Groups: c.dmsGroups}
	c.DMSNodes = make([][]*partition.Node, opts.DMSPartitions)
	c.dmsStores = make([][]*kv.Instrumented, opts.DMSPartitions)
	for pid := 0; pid < opts.DMSPartitions; pid++ {
		for rep := 0; rep < opts.DMSReplicas; rep++ {
			addr := dmsAddr(pid, rep)
			var base kv.Store
			if opts.DMSOnHashStore {
				base = kv.NewHashStore()
			} else {
				base = kv.NewBTreeStore()
			}
			store := kv.Instrument(base, kv.RAM)
			// Replicas of one partition share a ServerID: UUIDs are
			// drawn deterministically from it, so applying the same op
			// log yields byte-identical inodes on every replica. The
			// high bit keeps the IDs clear of the FMS range.
			ds := dms.New(dms.Options{
				Store:            store,
				CheckPermissions: opts.CheckPermissions,
				LeaseDur:         opts.Lease,
				ServerID:         0x80000000 | uint32(pid),
			})
			ds.SetFlight(c.Flight.Journal(), addr)
			node := partition.New(partition.Config{
				PID:        uint32(pid),
				Index:      rep,
				Self:       addr,
				Map:        pm,
				DMS:        ds,
				Dialer:     c.net,
				Journal:    c.Flight.Journal(),
				Source:     addr,
				LogCap:     opts.DMSLogCap,
				RepTimeout: opts.DMSRepTimeout,
			})
			if err := c.serve(addr, store, node.Attach); err != nil {
				return nil, err
			}
			ds.RegisterMetrics(c.Metrics[addr])
			c.DMSNodes[pid] = append(c.DMSNodes[pid], node)
			c.dmsStores[pid] = append(c.dmsStores[pid], store)
			c.dmsAllNodes = append(c.dmsAllNodes, node)
		}
	}
	c.DMS = c.DMSNodes[0][0].DMS()
	c.DMSStore = c.dmsStores[0][0]
	// The journal is cluster-wide, so its counters are exported exactly once
	// (through the bootstrap DMS registry) to keep SumCounter from
	// double-counting.
	c.Flight.RegisterMetrics(c.Metrics["dms"])

	// File metadata servers.
	for i := 0; i < opts.FMSCount; i++ {
		fstore := kv.Instrument(kv.NewHashStore(), kv.RAM)
		f := fms.New(fms.Options{
			Store:            fstore,
			ServerID:         uint32(i + 1),
			Coupled:          opts.CoupledFileMetadata,
			CheckPermissions: opts.CheckPermissions,
			BlockSize:        opts.BlockSize,
		})
		c.FMS = append(c.FMS, f)
		addr := fmt.Sprintf("fms-%d", i)
		f.SetFlight(c.Flight.Journal(), addr)
		c.fmsAddrs = append(c.fmsAddrs, addr)
		if err := c.serve(addr, fstore, f.Attach); err != nil {
			return nil, err
		}
	}

	// Object store servers.
	for i := 0; i < opts.OSSCount; i++ {
		ostore := kv.Instrument(kv.NewHashStore(), kv.RAM)
		o := objstore.New(ostore)
		c.OSS = append(c.OSS, o)
		addr := fmt.Sprintf("oss-%d", i)
		c.ossAddrs = append(c.ossAddrs, addr)
		if err := c.serve(addr, ostore, o.Attach); err != nil {
			return nil, err
		}
	}

	// Install the initial membership (epoch 1) on every server, making the
	// cluster elasticity-ready: servers stamp the epoch on responses and
	// AddFMS/RemoveFMS can install successors. Ring IDs start as the FMS
	// indices, matching the client's static-config ring exactly.
	for i := 0; i < opts.FMSCount; i++ {
		c.members = append(c.members, wire.Member{ID: int32(i), Addr: c.fmsAddrs[i]})
	}
	c.nextFMSID = int32(opts.FMSCount)
	c.epoch = 1
	m := &wire.Membership{Epoch: c.epoch, FMS: c.members}
	for addr, rs := range c.rsByAddr {
		self := -1
		for _, mm := range c.members {
			if mm.Addr == addr {
				self = int(mm.ID)
			}
		}
		rs.SetMembership(m, self)
	}
	return c, nil
}

// dmsAddr names DMS partition pid's replica rep on the fabric. Partition
// 0's first leader has the address "dms": the residual partition owning the
// root, and the whole DMS of a one-partition cluster.
func dmsAddr(pid, rep int) string {
	if pid == 0 && rep == 0 {
		return "dms"
	}
	return fmt.Sprintf("dms-p%d-r%d", pid, rep)
}

// serve starts one rpc.Server for a component on the fabric.
func (c *Cluster) serve(addr string, store *kv.Instrumented, attach func(*rpc.Server)) error {
	rs := rpc.NewServer()
	if c.opts.CostModel != nil {
		rs.SetServiceFunc(c.opts.CostModel.serviceFunc(store.Counters()))
	}
	if c.opts.Tracer != nil {
		rs.SetTracer(c.opts.Tracer, addr)
	}
	reg := telemetry.NewRegistry(telemetry.L("server", addr))
	reg.SetWindow(c.opts.Window)
	telemetry.RegisterBuildInfo(reg)
	trace.RegisterMetrics(reg, c.opts.Tracer)
	rs.SetTelemetry(reg)
	rs.SetFlight(c.Flight.Journal(), addr)
	reg.SetRotateHook(flight.WindowRollEmitter(c.Flight.Journal(), addr, 0))
	attach(rs)
	l, err := c.net.Listen(addr)
	if err != nil {
		return fmt.Errorf("core: listen %s: %w", addr, err)
	}
	go rs.Serve(l)
	// AddFMS calls serve while status pollers may be reading these maps.
	c.mu.Lock()
	c.Metrics[addr] = reg
	c.rpcServers = append(c.rpcServers, rs)
	c.rsByAddr[addr] = rs
	c.mu.Unlock()
	return nil
}

// ClientConfig tweaks one client.
type ClientConfig struct {
	UID, GID     uint32
	DisableCache bool
	Lease        time.Duration
	// DisableLeaseCoherence reverts this client's directory cache to
	// TTL-only semantics (see client.Config.DisableLeaseCoherence).
	DisableLeaseCoherence bool
	// DisableNegativeCache turns off negative-entry (ENOENT) caching.
	DisableNegativeCache bool
	// HotEntries / HotLeaseFactor / HotRefreshInterval configure the
	// hot-entry tier (see client.Config); HotEntries 0 disables it.
	HotEntries         int
	HotLeaseFactor     int
	HotRefreshInterval time.Duration
	Now                func() time.Time
	// Metrics receives the client's per-op round-trip telemetry; nil means
	// a private registry (see client.Config.Metrics). A shared registry
	// aggregates a whole client fleet into one snapshot.
	Metrics *telemetry.Registry
	// SlowThreshold enables client-side slow-call logging.
	SlowThreshold time.Duration
	// SerialFanOut disables parallel multi-server fan-out (the benchmark
	// baseline; see client.Config.SerialFanOut).
	SerialFanOut bool
	// DisableBatchRPC disables wire-level request batching (wire.OpBatch).
	DisableBatchRPC bool
	// CacheEntries bounds the client directory cache (0 = default cap,
	// negative = unbounded; see client.Config.CacheEntries).
	CacheEntries int
	// Tracer receives the client's spans (see client.Config.Tracer). Pass
	// the cluster's tracer to get joined client+server trees.
	Tracer *trace.Tracer
	// OpTimeout bounds each RPC attempt (see client.Config.OpTimeout).
	OpTimeout time.Duration
	// Retry governs automatic retries (see client.RetryPolicy; the zero
	// value keeps the legacy one-immediate-retry behavior).
	Retry client.RetryPolicy
	// Breaker configures the per-endpoint circuit breaker (zero = disabled).
	Breaker client.BreakerConfig
}

// NewClient connects a LocoLib client to the cluster.
func (c *Cluster) NewClient(cfg ClientConfig) (*client.Client, error) {
	lease := cfg.Lease
	if lease == 0 {
		lease = c.opts.Lease
	}
	c.mu.Lock()
	fmsAddrs := append([]string{}, c.fmsAddrs...)
	fmsIDs := make([]int, len(c.members))
	for i, m := range c.members {
		fmsIDs[i] = int(m.ID)
	}
	// Bootstrap from partition 0's current leader: "dms" is gone once a
	// failover has replaced it.
	bootstrap := c.dmsGroups[0][0]
	c.mu.Unlock()
	cl, err := client.Dial(client.Config{
		Dialer:                c.net,
		Link:                  c.opts.Link,
		DMSAddr:               bootstrap,
		FMSAddrs:              fmsAddrs,
		FMSIDs:                fmsIDs,
		OSSAddrs:              c.ossAddrs,
		DisableCache:          cfg.DisableCache || c.opts.DisableClientCache,
		Lease:                 lease,
		DisableLeaseCoherence: cfg.DisableLeaseCoherence || c.opts.DisableLeaseCoherence,
		DisableNegativeCache:  cfg.DisableNegativeCache,
		HotEntries:            cfg.HotEntries,
		HotLeaseFactor:        cfg.HotLeaseFactor,
		HotRefreshInterval:    cfg.HotRefreshInterval,
		UID:                   cfg.UID,
		GID:                   cfg.GID,
		Now:                   cfg.Now,
		Metrics:               cfg.Metrics,
		SlowThreshold:         cfg.SlowThreshold,
		SerialFanOut:          cfg.SerialFanOut,
		DisableBatchRPC:       cfg.DisableBatchRPC,
		CacheEntries:          cfg.CacheEntries,
		Tracer:                cfg.Tracer,
		OpTimeout:             cfg.OpTimeout,
		Retry:                 cfg.Retry,
		Breaker:               cfg.Breaker,
		Flight:                c.Flight.Journal(),
	})
	if err != nil {
		return nil, err
	}
	// Track the client's registry (deduped — fleets may share one) so
	// dircache/breaker/RTT telemetry joins the cluster status merge.
	c.mu.Lock()
	reg := cl.Metrics()
	found := false
	for _, r := range c.clientRegs {
		if r == reg {
			found = true
			break
		}
	}
	if !found {
		c.clientRegs = append(c.clientRegs, reg)
	}
	c.mu.Unlock()
	return cl, nil
}

// AddFMS grows the cluster by one file metadata server while it serves
// traffic: it starts the server, installs the next membership epoch with
// the migration window open, relocates the ~1/n of keys the grown ring
// places on the newcomer, and closes the window. Clients notice the new
// epoch on their next response and re-route; the namespace stays fully
// readable throughout (dual-read). Returns the coordinator's report.
func (c *Cluster) AddFMS() (*client.RebalanceReport, error) {
	c.mu.Lock()
	id := c.nextFMSID
	c.nextFMSID++
	addr := fmt.Sprintf("fms-%d", id)
	c.mu.Unlock()

	fstore := kv.Instrument(kv.NewHashStore(), kv.RAM)
	f := fms.New(fms.Options{
		Store:            fstore,
		ServerID:         uint32(id + 1),
		Coupled:          c.opts.CoupledFileMetadata,
		CheckPermissions: c.opts.CheckPermissions,
		BlockSize:        c.opts.BlockSize,
	})
	f.SetFlight(c.Flight.Journal(), addr)
	if err := c.serve(addr, fstore, f.Attach); err != nil {
		return nil, err
	}

	admin, err := c.NewClient(ClientConfig{})
	if err != nil {
		return nil, err
	}
	defer admin.Close()
	rep, err := admin.AddFMS(id, addr)
	if err != nil {
		return rep, err
	}
	c.mu.Lock()
	c.FMS = append(c.FMS, f)
	c.fmsAddrs = append(c.fmsAddrs, addr)
	c.members = append(c.members, wire.Member{ID: id, Addr: addr})
	c.epoch = rep.ToEpoch
	c.mu.Unlock()
	return rep, nil
}

// RemoveFMS shrinks the cluster by the most recently listed file metadata
// server, draining every file it holds to the survivors before the window
// closes. The drained server keeps running — in-flight dual-reads may
// still land on it — but owns no keys afterwards.
func (c *Cluster) RemoveFMS() (*client.RebalanceReport, error) {
	c.mu.Lock()
	if len(c.members) <= 1 {
		c.mu.Unlock()
		return nil, fmt.Errorf("core: cannot remove the last FMS")
	}
	victim := c.members[len(c.members)-1]
	c.mu.Unlock()

	admin, err := c.NewClient(ClientConfig{})
	if err != nil {
		return nil, err
	}
	defer admin.Close()
	rep, err := admin.RemoveFMS(victim.ID)
	if err != nil {
		return rep, err
	}
	c.mu.Lock()
	c.members = c.members[:len(c.members)-1]
	for i, a := range c.fmsAddrs {
		if a == victim.Addr {
			c.fmsAddrs = append(c.fmsAddrs[:i], c.fmsAddrs[i+1:]...)
			c.FMS = append(c.FMS[:i], c.FMS[i+1:]...)
			break
		}
	}
	c.epoch = rep.ToEpoch
	c.mu.Unlock()
	return rep, nil
}

// FailoverDMS kills the current leader of DMS partition pid and promotes
// its first surviving follower: the leader's rpc server is shut down (its
// fabric address disappears, so in-flight client calls fail fast and
// re-route), a successor partition map with a bumped version is built, and
// the map is pushed to every live replica of every partition. The promoted
// follower recovers its partition state (replaying un-applied log entries
// and resolving in-flight cross-partition renames) synchronously inside the
// push, so when FailoverDMS returns the partition is serving again. Every
// mutation the dead leader acked survives — acked means logged on all
// non-excluded replicas.
func (c *Cluster) FailoverDMS(pid int) error {
	c.mu.Lock()
	if pid < 0 || pid >= len(c.dmsGroups) {
		c.mu.Unlock()
		return fmt.Errorf("core: no such DMS partition %d", pid)
	}
	if len(c.dmsGroups[pid]) < 2 {
		c.mu.Unlock()
		return fmt.Errorf("core: DMS partition %d has no follower to promote", pid)
	}
	dead := c.dmsGroups[pid][0]
	deadRS := c.rsByAddr[dead]
	groups := make([][]string, len(c.dmsGroups))
	for i, g := range c.dmsGroups {
		groups[i] = append([]string{}, g...)
	}
	groups[pid] = groups[pid][1:]
	c.pmVer++
	pm := &wire.PartMap{Ver: c.pmVer, Cuts: c.dmsCuts, Groups: groups}
	c.dmsGroups = groups
	c.DMSNodes[pid] = c.DMSNodes[pid][1:]
	c.dmsStores[pid] = c.dmsStores[pid][1:]
	if pid == 0 {
		c.DMS = c.DMSNodes[0][0].DMS()
		c.DMSStore = c.dmsStores[0][0]
	}
	c.mu.Unlock()

	// Kill first: the address must be gone before the successor map is
	// live, or a slow client could keep talking to a deposed leader.
	if deadRS != nil {
		deadRS.Shutdown()
	}

	var firstErr error
	for p := range groups {
		for idx, addr := range groups[p] {
			cl, err := rpc.Dial(c.net, addr)
			if err == nil {
				var st wire.Status
				st, _, err = cl.Call(wire.OpSetPartMap, wire.EncodeSetPartMap(pm, uint32(p), idx))
				cl.Close()
				// ESTALE means the replica already holds this or a newer
				// map — fine.
				if err == nil && st != wire.StatusOK && st != wire.StatusStale {
					err = st.Err()
				}
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("core: push partition map to %s: %w", addr, err)
			}
		}
	}
	return firstErr
}

// Epoch returns the cluster's current membership epoch.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Network exposes the cluster's in-process fabric, mainly so tests and the
// fault-injection experiment can plant faults on server addresses (see
// netsim.Network.SetFault).
func (c *Cluster) Network() *netsim.Network { return c.net }

// MetadataOpsServed sums completed requests over every metadata server.
func (c *Cluster) MetadataOpsServed() uint64 {
	var n uint64
	for _, rs := range c.rpcServers {
		n += rs.Served.Load()
	}
	return n
}

// DMSOpsServed returns completed requests on the directory metadata service
// alone — the offered load client caching is supposed to shed. It sums every
// partition replica (including deposed leaders, whose pre-failover traffic
// still counts).
func (c *Cluster) DMSOpsServed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for addr, rs := range c.rsByAddr {
		if addr == "dms" || strings.HasPrefix(addr, "dms-p") {
			n += rs.Served.Load()
		}
	}
	return n
}

// DMSBusy returns cumulative service time per DMS server — one entry per
// partition replica, in deterministic (address) order.
func (c *Cluster) DMSBusy() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, 4)
	for addr := range c.rsByAddr {
		if addr == "dms" || strings.HasPrefix(addr, "dms-p") {
			addrs = append(addrs, addr)
		}
	}
	sort.Strings(addrs)
	out := make([]time.Duration, 0, len(addrs))
	for _, a := range addrs {
		out = append(out, c.rsByAddr[a].Busy())
	}
	return out
}

// Link returns the modeled link configuration.
func (c *Cluster) Link() netsim.LinkConfig { return c.opts.Link }

// ServerBusy returns per-server cumulative service time, DMS first, then
// each FMS, then each OSS — the inputs to server-bound throughput modeling.
func (c *Cluster) ServerBusy() []time.Duration {
	out := make([]time.Duration, 0, len(c.rpcServers))
	for _, rs := range c.rpcServers {
		out = append(out, rs.Busy())
	}
	return out
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	c.Flight.Close()
	c.net.Close()
	for _, rs := range c.rpcServers {
		rs.Shutdown()
	}
	for _, n := range c.dmsAllNodes {
		n.Close()
	}
}
