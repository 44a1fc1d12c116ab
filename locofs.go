// Package locofs is the public API of the LocoFS reproduction — a
// distributed file system with a loosely-coupled metadata service
// (Li et al., SC'17).
//
// The metadata service separates directory metadata (the Directory Metadata
// Server holding every d-inode, keyed by full path in a B+-tree store) from
// file metadata (File Metadata Servers holding per-file access/content
// parts, placed by consistent-hashing directory UUID + name), with file
// data in an object store addressed by immutable file UUID + block number.
// Every hot-path metadata operation contacts one or two servers.
//
// # In-process cluster
//
//	cluster, err := locofs.Start(locofs.Options{FMSCount: 4})
//	defer cluster.Close()
//	fs, err := cluster.NewClient(locofs.ClientConfig{UID: 1000})
//	defer fs.Close()
//	fs.Mkdir("/data", 0o755)
//	fs.Create("/data/f", 0o644)
//
// # Real deployment
//
// Servers run over TCP via DialConfig/NewClient and the server constructors
// in this package; see cmd/locofsd for a complete daemon.
//
// # Contexts and deadlines
//
// Every Client method has a *Context variant (MkdirContext, StatContext,
// OpenContext, ...) taking a context.Context as its first argument; the
// plain methods are equivalent to passing context.Background(). The context
// governs the whole logical operation — every RPC attempt it issues and
// every backoff wait between retries:
//
//   - A context deadline bounds each RPC attempt in flight: the attempt
//     fails with ErrDeadlineExceeded (which matches
//     context.DeadlineExceeded under errors.Is) when the deadline expires
//     first. WithOpTimeout still applies per attempt; the effective
//     per-attempt deadline is the tighter of the two.
//   - Cancellation is checked before every retry and wakes any backoff
//     sleep immediately, so a canceled operation stops retrying at once.
//     Cancellation does not recall an attempt already on the wire — a
//     mutation whose request was already sent may still execute on the
//     server even though the call returns the context's error.
//
// # The cluster map: sharded directory metadata, elasticity, failover
//
// Placement is one versioned value, the cluster map (wire.ClusterMap,
// DESIGN.md §12): the DMS partitions' cut directories and replica groups,
// and the FMS set. Every server and client holds a copy; every response
// header carries the version of the responder's copy, and a client that
// sees a newer version than its own — or is refused a misrouted request
// (see ErrStale) — refetches the map from any server. A strictly newer
// version replaces an older one wherever it arrives, and nothing else does.
// Version 0 means "nothing installed": it is never stamped and loses to
// everything.
//
// The DMS is always served by partition nodes (DESIGN.md §16). The paper's
// single DMS is the solo map — one partition, one replica, version 0 —
// which is what NewDMS and a plain `locofsd -role dms` run, and which a
// client assumes of the address it dials until that address serves a real
// map. Options.DMSPartitions/DMSCuts/DMSReplicas shard the directory
// namespace into replicated subtree partitions, and clients route by path.
// DialConfig.DMSAddr may name any replica of any partition: Dial spends
// exactly one round trip there, fetching the map. A map that names no FMS
// set stands for DialConfig.FMSAddrs, ring IDs by position.
//
// The map changes only by read, edit, version+1, push, coordinated from a
// client: Client.AddFMS and Client.RemoveFMS grow and shrink the FMS set
// (migrating only the keys the consistent-hash ring moves, with the
// namespace readable throughout), Client.DropDMSReplica fails a dead DMS
// replica over to the next in its group; Cluster.AddFMS, RemoveFMS and
// FailoverDMS drive them for an in-process cluster. Note the wire-format
// flag day: every message header carries one cluster-map version field
// (61 bytes), so servers and clients must be built from the same release.
//
// # Observability
//
// Components are observed through one handle given at construction, never
// through setters: DialConfig.Obs, DMSOptions.Obs and FMSOptions.Obs take an
// *obs.Handle (internal/obs: a name, a metrics registry, a span tracer, a
// flight journal, a slow threshold; any part may be zero, nil means off),
// and an in-process cluster builds them itself. NewRPCServer returns an
// unobserved dispatcher; cmd/locofsd shows an observed one (rpc.New) and the
// admin endpoints (DESIGN.md §9 "Building a server"). Handlers are attached
// before Serve starts; attaching later panics.
//
// The packages under internal/ hold the implementation: metadata layouts,
// KV engines, the RPC stack, the servers, the baseline systems the paper
// compares against, and the experiment harness (see DESIGN.md).
package locofs

import (
	"time"

	"locofs/internal/client"
	"locofs/internal/core"
	"locofs/internal/dms"
	"locofs/internal/dms/partition"
	"locofs/internal/fms"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/rpc"
	"locofs/internal/uuid"
)

// Options configures an in-process cluster. See core.Options for fields.
type Options = core.Options

// ClientConfig tweaks one client of an in-process cluster.
type ClientConfig = core.ClientConfig

// Cluster is a running in-process LocoFS deployment.
type Cluster = core.Cluster

// Start launches an in-process cluster: the DMS (one partition node unless
// Options shards or replicates it), Options.FMSCount file metadata servers,
// and Options.OSSCount object store servers.
func Start(opts Options) (*Cluster, error) { return core.Start(opts) }

// KVCost prices server-side work for modeled-hardware experiments.
type KVCost = core.KVCost

// PaperKVCost is the calibration reproducing the paper's metadata nodes.
var PaperKVCost = core.PaperKVCost

// Client is a LocoLib file-system client.
type Client = client.Client

// File is an open file handle.
type File = client.File

// Attr is a stat result. Attr.Kind distinguishes files from directories —
// Client.Stat resolves either with one call.
type Attr = client.Attr

// Kind is the kind of namespace object an Attr describes.
type Kind = client.Kind

// Kinds reported in Attr.Kind.
const (
	KindFile = client.KindFile
	KindDir  = client.KindDir
)

// DirEntry is one readdir result.
type DirEntry = client.DirEntry

// DialConfig describes a cluster to connect a standalone client to
// (typically over TCP; see TCPDialer).
type DialConfig = client.Config

// Dial connects a client to the servers in cfg, with any options applied
// on top:
//
//	fs, err := locofs.Dial(cfg,
//		locofs.WithOpTimeout(200*time.Millisecond),
//		locofs.WithRetry(locofs.RetryPolicy{Max: 3, Base: 10 * time.Millisecond}),
//		locofs.WithBreaker(locofs.BreakerConfig{Threshold: 5}))
//
// A zero-option Dial behaves exactly as before the fault-tolerance layer:
// no per-attempt deadline, one transparent reconnect-retry per call, no
// circuit breaker.
func Dial(cfg DialConfig, opts ...DialOption) (*Client, error) { return client.Dial(cfg, opts...) }

// DialOption layers fault-tolerance policy onto a DialConfig at Dial time.
type DialOption = client.DialOption

// RetryPolicy bounds automatic retries of failed RPC attempts; see
// client.RetryPolicy for the semantics and the idempotency matrix.
type RetryPolicy = client.RetryPolicy

// BreakerConfig configures the per-endpoint circuit breaker.
type BreakerConfig = client.BreakerConfig

// WithOpTimeout bounds each RPC attempt; expiry fails the attempt with
// ErrDeadlineExceeded (and the retry policy decides whether to try again).
func WithOpTimeout(d time.Duration) DialOption { return client.WithOpTimeout(d) }

// WithRetry sets the automatic retry policy.
func WithRetry(p RetryPolicy) DialOption { return client.WithRetry(p) }

// WithBreaker enables the per-endpoint circuit breaker.
func WithBreaker(b BreakerConfig) DialOption { return client.WithBreaker(b) }

// LinkConfig models a network link (RTT + bandwidth) for virtual-time
// latency accounting.
type LinkConfig = netsim.LinkConfig

// Paper1GbE is the link measured in the paper: 0.174 ms RTT, 1 Gbps.
var Paper1GbE = netsim.Paper1GbE

// TCPDialer dials real TCP endpoints for DialConfig.Dialer.
type TCPDialer = netsim.TCPDialer

// ListenTCP starts a TCP listener for serving a LocoFS component.
func ListenTCP(addr string) (*netsim.TCPListener, error) { return netsim.ListenTCP(addr) }

// Server types for standalone (TCP) deployments. Construct with the
// respective New functions, attach to an RPCServer, and serve a listener;
// cmd/locofsd shows the full wiring.
type (
	// DMSOptions configures a directory metadata server.
	DMSOptions = dms.Options
	// DMS is the directory metadata server as it is served: a partition
	// node around the directory store.
	DMS = partition.Node
	// FMSOptions configures a file metadata server.
	FMSOptions = fms.Options
	// FMS is a file metadata server.
	FMS = fms.Server
	// ObjectStore is a data block server.
	ObjectStore = objstore.Server
	// RPCServer dispatches LocoFS requests to an attached component.
	RPCServer = rpc.Server
)

// NewDMS builds a standalone directory metadata server: one partition, one
// replica (the solo map), ready to Attach to an RPCServer.
func NewDMS(opts DMSOptions) *DMS {
	return partition.New(partition.Config{DMS: dms.New(opts), Dialer: netsim.TCPDialer{}, Obs: opts.Obs})
}

// NewFMS builds a file metadata server. Each FMS needs a unique ServerID.
func NewFMS(opts FMSOptions) *FMS { return fms.New(opts) }

// NewObjectStore builds an object store server (nil store = in-memory).
func NewObjectStore() *ObjectStore { return objstore.New(nil) }

// NewRPCServer builds the request dispatcher a component attaches to.
func NewRPCServer() *RPCServer { return rpc.NewServer() }

// UUID identifies a directory or file for its whole lifetime; it never
// changes on rename, which is what keeps renames cheap (§3.4.2).
type UUID = uuid.UUID
