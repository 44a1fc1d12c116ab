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
	// Lease is the client cache lease (default 30 s). It also sets the
	// DMS's granted lease duration, so coherent clients and the server's
	// suppression horizon agree.
	Lease time.Duration
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
	// in-process, sharing the same tracer with clients (ClientConfig.Obs)
	// yields complete client+server span trees in one ring. Nil disables
	// server-side tracing.
	Tracer *trace.Tracer
	// Window configures the rotating telemetry window on every server
	// registry (time-local quantiles, SLO burn). The zero value keeps the
	// telemetry package defaults (6 × 10 s).
	Window telemetry.WindowConfig
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

	// Flight is the cluster's one obs.Process, named "cluster": every
	// server's handle derives from it (Process.For), every cluster-dialed
	// client gets its journal, and it is the flight recorder — one shared
	// event journal, the anomaly rules and bundle capture over it. Its own
	// registry carries the process-wide journal and recorder counters, which
	// ClusterStatus merges in. Start does not launch background polling
	// (call Flight.Start, or Flight.Poll from a deterministic test loop).
	Flight *obs.Process

	rpcServers []*rpc.Server
	rsByAddr   map[string]*rpc.Server
	ossAddrs   []string

	// mu guards the mutable state below. cmap is the newest cluster map
	// this Cluster knows: the one Start installed, then whatever its admin
	// clients' map changes left installed (changeMap). FMS parallels
	// cmap.FMS; DMSNodes and dmsStores hold the live replicas of cmap.Groups
	// in the same order; killed names the DMS replicas FailoverDMS shut down,
	// which cmap may still list until the drop is installed. nextFMSID is
	// the next fresh ring ID an AddFMS will assign (ring IDs are never
	// reused). clientRegs tracks the registries of clients this cluster
	// dialed (deduped), so client-side telemetry — dircache counters, breaker
	// transitions, RTT windows — joins the cluster status merge. dmsAllNodes
	// keeps every node ever started so Close can release peer connections of
	// replaced leaders too.
	mu          sync.Mutex
	cmap        *wire.ClusterMap
	killed      map[string]bool
	nextFMSID   int32
	clientRegs  []*telemetry.Registry
	dmsStores   [][]*kv.Instrumented
	dmsAllNodes []*partition.Node
}

// Start builds and starts a cluster.
func Start(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	c := &Cluster{
		opts:     opts,
		net:      netsim.NewNetwork(netsim.Loopback),
		Metrics:  make(map[string]*telemetry.Registry),
		rsByAddr: make(map[string]*rpc.Server),
		killed:   make(map[string]bool),
	}

	// One process, one recorder: a journal shared by every server (and
	// every client this cluster dials), anomaly rules fed from the
	// cluster-wide SLO merge, and bundle capture. Safe to build before the
	// servers — the status feed only runs when Poll/Start/Capture is
	// invoked, and by then the status sources exist.
	c.Flight = obs.New(obs.Config{
		Name:   "cluster",
		Tracer: opts.Tracer,
		Status: func() *slo.ServerStatus {
			return &slo.ServerStatus{Server: "cluster", SLO: c.ClusterStatus().SLO}
		},
		Extra: func() map[string]any {
			c.mu.Lock()
			defer c.mu.Unlock()
			return map[string]any{"map": c.cmap}
		},
		Window: opts.Window,
	})

	// The version-1 cluster map every server starts from, which makes the
	// cluster elasticity- and failover-ready: servers stamp the version on
	// responses and map changes can install successors. The DMS side is
	// DMSPartitions x DMSReplicas partition nodes (DESIGN.md §16) — one node
	// when both are 1.
	groups := make([][]string, opts.DMSPartitions)
	for pid := range groups {
		for rep := 0; rep < opts.DMSReplicas; rep++ {
			groups[pid] = append(groups[pid], dmsAddr(pid, rep))
		}
	}
	pm, err := partition.NewMap(groups, opts.DMSCuts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c.cmap = pm
	// Ring IDs start as the FMS indices, matching a client's static-config
	// ring exactly.
	for i := 0; i < opts.FMSCount; i++ {
		pm.FMS = append(pm.FMS, wire.Member{ID: int32(i), Addr: fmt.Sprintf("fms-%d", i)})
	}
	c.nextFMSID = int32(opts.FMSCount)
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
			h := c.Flight.For(addr, obs.Export{})
			// Replicas of one partition share a ServerID: UUIDs are
			// drawn deterministically from it, so applying the same op
			// log yields byte-identical inodes on every replica. The
			// high bit keeps the IDs clear of the FMS range.
			ds := dms.New(dms.Options{
				Store:            store,
				CheckPermissions: opts.CheckPermissions,
				LeaseDur:         opts.Lease,
				ServerID:         0x80000000 | uint32(pid),
				Obs:              h,
			})
			node := partition.New(partition.Config{
				PID:        uint32(pid),
				Index:      rep,
				Map:        pm,
				DMS:        ds,
				Dialer:     c.net,
				Obs:        h,
				LogCap:     opts.DMSLogCap,
				RepTimeout: opts.DMSRepTimeout,
			})
			if err := c.serve(h, store, node.Attach); err != nil {
				return nil, err
			}
			c.DMSNodes[pid] = append(c.DMSNodes[pid], node)
			c.dmsStores[pid] = append(c.dmsStores[pid], store)
			c.dmsAllNodes = append(c.dmsAllNodes, node)
		}
	}
	c.DMS = c.DMSNodes[0][0].DMS()
	c.DMSStore = c.dmsStores[0][0]

	// File metadata servers.
	for _, m := range pm.FMS {
		f, err := c.startFMS(m)
		if err != nil {
			return nil, err
		}
		c.FMS = append(c.FMS, f)
		c.rsByAddr[m.Addr].InstallMap(pm, wire.FMSCoords(m.ID))
	}

	// Object store servers.
	for i := 0; i < opts.OSSCount; i++ {
		ostore := kv.Instrument(kv.NewHashStore(), kv.RAM)
		o := objstore.New(ostore)
		c.OSS = append(c.OSS, o)
		addr := fmt.Sprintf("oss-%d", i)
		c.ossAddrs = append(c.ossAddrs, addr)
		if err := c.serve(c.Flight.For(addr, obs.Export{}), ostore, o.Attach); err != nil {
			return nil, err
		}
		c.rsByAddr[addr].InstallMap(pm, wire.FMSCoords(-1))
	}
	return c, nil
}

// startFMS builds and serves the file metadata server m names.
func (c *Cluster) startFMS(m wire.Member) (*fms.Server, error) {
	fstore := kv.Instrument(kv.NewHashStore(), kv.RAM)
	h := c.Flight.For(m.Addr, obs.Export{})
	f := fms.New(fms.Options{
		Store:            fstore,
		ServerID:         uint32(m.ID + 1),
		Coupled:          c.opts.CoupledFileMetadata,
		CheckPermissions: c.opts.CheckPermissions,
		BlockSize:        c.opts.BlockSize,
		Obs:              h,
	})
	return f, c.serve(h, fstore, f.Attach)
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

// serve starts one rpc.Server for a component on the fabric, observed
// through h and listening at h.Name.
func (c *Cluster) serve(h *obs.Handle, store *kv.Instrumented, attach func(*rpc.Server)) error {
	cfg := rpc.Config{Obs: h}
	if c.opts.CostModel != nil {
		cfg.Service = c.opts.CostModel.serviceFunc(store.Counters())
	}
	rs := rpc.New(cfg)
	attach(rs)
	l, err := c.net.Listen(h.Name)
	if err != nil {
		return fmt.Errorf("core: listen %s: %w", h.Name, err)
	}
	go rs.Serve(l)
	// AddFMS calls serve while status pollers may be reading these maps.
	c.mu.Lock()
	c.Metrics[h.Name] = h.Reg
	c.rpcServers = append(c.rpcServers, rs)
	c.rsByAddr[h.Name] = rs
	c.mu.Unlock()
	return nil
}

// ClientConfig tweaks one client: a client.Config whose Dialer, Link,
// addresses and journal NewClient fills in, and whose Lease defaults to the
// cluster's. The cache mode — DisableCache, DisableLeaseCoherence — is the
// client's own: a cluster sets none.
type ClientConfig = client.Config

// NewClient connects a LocoLib client to the cluster.
func (c *Cluster) NewClient(cfg ClientConfig) (*client.Client, error) {
	// Bootstrap from the first live replica of partition 0: "dms" is gone
	// once a failover has replaced it. The FMS addresses are only dialed;
	// their ring IDs come with the bootstrap map.
	c.mu.Lock()
	cfg.DMSAddr = c.liveLocked(0)
	cfg.FMSAddrs = make([]string, len(c.cmap.FMS))
	for i, m := range c.cmap.FMS {
		cfg.FMSAddrs[i] = m.Addr
	}
	c.mu.Unlock()
	cfg.Dialer, cfg.Link, cfg.OSSAddrs = c.net, c.opts.Link, c.ossAddrs
	if cfg.Lease == 0 {
		cfg.Lease = c.opts.Lease
	}
	// The caller's registry, tracer and slow threshold, the cluster's journal.
	var h obs.Handle
	if cfg.Obs != nil {
		h = *cfg.Obs
	}
	h.Journal = c.Flight.Journal
	cfg.Obs = &h
	cl, err := client.Dial(cfg)
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

// liveLocked returns the first replica of DMS partition pid that has not
// been killed: its leader, once the map catches up with the kills.
func (c *Cluster) liveLocked(pid int) string {
	for _, a := range c.cmap.Groups[pid] {
		if !c.killed[a] {
			return a
		}
	}
	return ""
}

// Map returns the newest cluster map this Cluster knows.
func (c *Cluster) Map() *wire.ClusterMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cmap
}

// MapVer returns the version of Map.
func (c *Cluster) MapVer() uint64 { return c.Map().Ver }

// changeMap runs one map change through a fresh admin client and adopts
// the map it leaves installed. The admin client bounds each attempt by the
// replication timeout, like the replication plane itself: what a
// best-effort push to a dark follower costs.
func (c *Cluster) changeMap(change func(admin *client.Client) error) error {
	admin, err := c.NewClient(ClientConfig{OpTimeout: c.opts.DMSRepTimeout})
	if err != nil {
		return err
	}
	defer admin.Close()
	err = change(admin)
	c.mu.Lock()
	if m := admin.Map(); m.Ver > c.cmap.Ver {
		c.cmap = m
	}
	c.mu.Unlock()
	return err
}

// AddFMS grows the cluster by one file metadata server while it serves
// traffic: it starts the server, opens the migration window in the cluster
// map, relocates the ~1/n of keys the grown ring places on the newcomer,
// and closes the window. Clients notice the new map version on their next
// response and re-route; the namespace stays fully readable throughout
// (dual-read). Returns the coordinator's report.
func (c *Cluster) AddFMS() (rep *client.RebalanceReport, err error) {
	c.mu.Lock()
	m := wire.Member{ID: c.nextFMSID, Addr: fmt.Sprintf("fms-%d", c.nextFMSID)}
	c.nextFMSID++
	c.mu.Unlock()

	f, err := c.startFMS(m)
	if err != nil {
		return nil, err
	}
	err = c.changeMap(func(admin *client.Client) error {
		rep, err = admin.AddFMS(m.ID, m.Addr)
		return err
	})
	if err == nil {
		c.mu.Lock()
		c.FMS = append(c.FMS, f)
		c.mu.Unlock()
	}
	return rep, err
}

// RemoveFMS shrinks the cluster by the most recently listed file metadata
// server, draining every file it holds to the survivors before the window
// closes. The drained server keeps running — in-flight dual-reads may
// still land on it — but owns no keys afterwards.
func (c *Cluster) RemoveFMS() (rep *client.RebalanceReport, err error) {
	set := c.Map().FMS
	if len(set) <= 1 {
		return nil, fmt.Errorf("core: cannot remove the last FMS")
	}
	err = c.changeMap(func(admin *client.Client) error {
		rep, err = admin.RemoveFMS(set[len(set)-1].ID)
		return err
	})
	if err == nil {
		c.mu.Lock()
		c.FMS = c.FMS[:len(set)-1]
		c.mu.Unlock()
	}
	return rep, err
}

// FailoverDMS kills the current leader of DMS partition pid and promotes
// its first surviving follower: the leader's rpc server is shut down (its
// fabric address disappears, so in-flight client calls fail fast and
// re-route), and one map change drops its address from its group. The
// promoted follower recovers its partition state (replaying un-applied log
// entries and resolving in-flight cross-partition renames) synchronously
// inside the push, so when FailoverDMS returns the partition is serving
// again. Every mutation the dead leader acked survives — acked means logged
// on all non-excluded replicas.
func (c *Cluster) FailoverDMS(pid int) error {
	c.mu.Lock()
	if pid < 0 || pid >= len(c.DMSNodes) {
		c.mu.Unlock()
		return fmt.Errorf("core: no such DMS partition %d", pid)
	}
	if len(c.DMSNodes[pid]) < 2 {
		c.mu.Unlock()
		return fmt.Errorf("core: DMS partition %d has no follower to promote", pid)
	}
	dead := c.liveLocked(pid)
	c.killed[dead] = true
	c.DMSNodes[pid] = c.DMSNodes[pid][1:]
	c.dmsStores[pid] = c.dmsStores[pid][1:]
	if pid == 0 {
		c.DMS = c.DMSNodes[0][0].DMS()
		c.DMSStore = c.dmsStores[0][0]
	}
	deadRS := c.rsByAddr[dead]
	c.mu.Unlock()

	// Kill first: DropDMSReplica's precondition is a replica that no longer
	// serves, or a slow client could keep talking to a deposed leader.
	deadRS.Shutdown()
	return c.changeMap(func(admin *client.Client) error {
		_, _, err := admin.DropDMSReplica(dead)
		return err
	})
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
