// Package client implements LocoLib, the LocoFS client library (§3.1).
//
// LocoLib routes directory operations to the Directory Metadata Server (the
// leader of the partition owning the path — for the paper's single DMS, the
// one address it dialed), file metadata operations to the File Metadata
// Server chosen by consistent-hashing directory_uuid + file_name, and data
// operations straight to the object store — so the common path of every
// operation is one or two round trips. A client-side directory inode cache with leases
// (§3.2.2) removes the DMS hop from repeated operations in the same
// directory.
package client

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/chash"
	"locofs/internal/fms"
	"locofs/internal/fspath"
	"locofs/internal/layout"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/obs"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// Config describes the cluster a client connects to and the client's
// identity and caching behavior.
type Config struct {
	// Dialer connects to the addresses below (simulated or TCP).
	Dialer netsim.Dialer
	// Link is the modeled network link used for virtual-time accounting
	// (see rpc.Client.SetLink). Zero models a co-located deployment.
	Link netsim.LinkConfig
	// DMSAddr is the directory metadata server address. Dial asks it for the
	// cluster map, so against a sharded DMS it is only the bootstrap
	// endpoint: any replica of any partition, leader or follower, will do.
	// A lone DMS answers with the version-0 solo map and stays the one route.
	DMSAddr string
	// Deprecated: ignored. Dial always asks DMSAddr for the cluster map.
	DMSSharded bool
	// FMSAddrs lists file metadata servers. The slice index is the server's
	// consistent-hash ring ID for as long as the cluster map names no FMS
	// set of its own (see wire.ClusterMap); once it does — after the first
	// AddFMS, or in a cluster started with one — the map's set and its
	// stable ring IDs replace this list.
	FMSAddrs []string
	// OSSAddrs lists object store servers (at least one).
	OSSAddrs []string
	// DisableCache turns off the client directory cache (LocoFS-NC).
	DisableCache bool
	// Lease overrides the default 30 s cache lease. In coherent mode the
	// server's granted duration wins; this value only governs the TTL-only
	// fallback (see DisableLeaseCoherence).
	Lease time.Duration
	// DisableLeaseCoherence reverts the directory cache to the paper's
	// TTL-only semantics: entries are trusted for the configured lease with
	// no staleness detection, no negative entries and no listing cache.
	// The default (false) is lease-coherent caching: the DMS grants leases
	// on lookups, stamps its recall sequence on every response, and the
	// client drops exactly the directories that changed (DESIGN.md §14).
	DisableLeaseCoherence bool
	// UID and GID are the credentials stamped on operations.
	UID, GID uint32
	// Now overrides the clock (tests).
	Now func() time.Time
	// Obs is the client's observability; each part may be zero. Reg
	// receives per-op round-trip histograms and call counters: nil (or a
	// nil handle) means a private registry, reachable via Client.Metrics,
	// and a shared one aggregates several clients into one view (e.g. a
	// benchmark fleet). Tracer receives a root span per logical operation,
	// a child span per RPC (annotated with the server address and retries)
	// and one per fan-out branch; a tracer shared with in-process servers
	// yields complete trees. Journal receives breaker transitions, retries
	// and coordinator migration batches. Any RPC whose wall-clock round
	// trip reaches Slow is logged with its trace ID and server address.
	// Name defaults to "client".
	Obs *obs.Handle
	// SerialFanOut disables parallel multi-server fan-out: rmdir probes,
	// readdir listings, block deletes and Close visit one server at a
	// time, as the pre-parallel client did. Kept as the benchmark
	// baseline (see internal/bench's fan-out experiment).
	SerialFanOut bool
	// CacheEntries bounds the directory cache; on overflow the oldest
	// entries are evicted. Zero means DefaultCacheEntries, negative means
	// unbounded.
	CacheEntries int
	// OpTimeout bounds each RPC attempt; an attempt exceeding it fails with
	// wire.StatusDeadline and the connection is replaced. Zero disables
	// per-attempt deadlines (the historical behavior).
	OpTimeout time.Duration
	// Retry governs automatic retries of failed attempts. The zero value
	// means DefaultRetry (one immediate retry); Max < 0 disables retries.
	Retry RetryPolicy
	// Breaker configures the per-endpoint circuit breaker. The zero value
	// disables it.
	Breaker BreakerConfig
}

// DialOption mutates a Config before Dial uses it; see WithOpTimeout,
// WithRetry and WithBreaker. Options exist so callers holding a canonical
// cluster Config can layer fault-tolerance policy on top without copying
// and editing the struct.
type DialOption func(*Config)

// WithOpTimeout sets Config.OpTimeout, the per-attempt RPC deadline.
func WithOpTimeout(d time.Duration) DialOption {
	return func(c *Config) { c.OpTimeout = d }
}

// WithRetry sets Config.Retry, the automatic retry policy.
func WithRetry(p RetryPolicy) DialOption {
	return func(c *Config) { c.Retry = p }
}

// WithBreaker sets Config.Breaker, the per-endpoint circuit breaker.
func WithBreaker(b BreakerConfig) DialOption {
	return func(c *Config) { c.Breaker = b }
}

// Client is one LocoLib instance. It is safe for concurrent use.
type Client struct {
	oss   []*endpoint
	oring *chash.Ring
	cache *dirCache // nil when disabled
	uid   uint32
	gid   uint32

	// Routing is versioned by the cluster map (see view.go): view holds the
	// immutable current picture (nil only while Dial bootstraps), eps is the
	// by-address registry of every DMS replica and FMS connection feeding
	// it, static the configured FMS list an installed map with no FMS set of
	// its own stands for, maxVer the highest map version seen on the wire,
	// and fetching the one in-flight map fetch (nil when none; see
	// refreshMap).
	view     atomic.Pointer[view]
	epMu     sync.Mutex
	eps      map[string]*endpoint
	dial     func(addr string) (*endpoint, error)
	static   []wire.Member
	maxVer   atomic.Uint64
	fetchMu  sync.Mutex
	fetching chan struct{}
	dmsAddr  string
	res      *resilience

	serialFanOut bool
	// parSavedNS accumulates the virtual time parallel fan-out groups
	// saved over serial execution (per group: sum of branch times minus
	// the slowest branch). Cost subtracts it, so the deterministic
	// virtual-time model sees concurrency.
	parSavedNS atomic.Int64

	telem     *clientTelem
	label     telemetry.Label // gauge identity, unregistered by Close
	traceBase uint64          // client id in the top 16 bits of every trace
	traceCtr  atomic.Uint64   // per-operation sequence in the low 48 bits
}

// opCtx carries one logical file-system operation's identity through the
// client: the trace ID stamped on every RPC the operation issues, the
// client-side root span (nil when tracing is disabled or sampled out —
// every use is nil-safe, so the disabled path stays allocation-free), and
// the caller's context (nil on the legacy context-free API — also
// nil-safe everywhere, so the legacy path pays nothing).
type opCtx struct {
	tid uint64
	sp  *trace.Span
	ctx context.Context
}

// startOp mints the opCtx for one logical operation, opening its client
// root span when tracing is enabled.
func (c *Client) startOp(name string) opCtx {
	oc := opCtx{tid: c.newTrace()}
	oc.sp = c.telem.StartSpan(oc.tid, 0, name)
	return oc
}

// startOpCtx is startOp carrying the caller's context into every RPC the
// operation issues (per-attempt deadlines, retry waits — see the *Context
// method docs). context.Background collapses to the context-free path so
// the delegating legacy methods stay byte-identical in behavior.
func (c *Client) startOpCtx(ctx context.Context, name string) opCtx {
	oc := c.startOp(name)
	if ctx != nil && ctx != context.Background() {
		oc.ctx = ctx
	}
	return oc
}

// finish closes the operation's (or branch's) span, recording err as the
// span status.
func (oc opCtx) finish(err error) {
	if oc.sp == nil {
		return
	}
	if err != nil {
		oc.sp.SetStatus(wire.StatusOf(err).String())
	}
	oc.sp.Finish()
}

// branch derives the opCtx for fan-out branch i: same trace, with a child
// span named label when the parent operation carries one.
func (oc opCtx) branch(label string, i int) opCtx {
	boc := opCtx{tid: oc.tid}
	if oc.sp != nil {
		boc.sp = oc.sp.StartChild(label)
		boc.sp.SetSub(i)
	}
	return boc
}

// nextClientID distinguishes trace IDs of clients within one process.
var nextClientID atomic.Uint64

// newTrace mints the trace ID for one logical file-system operation; every
// RPC the operation issues carries it, so slow-request logs on different
// servers can be correlated.
func (c *Client) newTrace() uint64 {
	return c.traceBase | (c.traceCtr.Add(1) & (1<<48 - 1))
}

// Metrics returns the registry holding this client's per-op round-trip
// histograms and call counters (see rpc.MetricRTT, rpc.MetricCalls).
func (c *Client) Metrics() *telemetry.Registry { return c.telem.Reg }

// Dial connects to every server in cfg — with any opts applied on top —
// and returns a ready client.
func Dial(cfg Config, opts ...DialOption) (*Client, error) {
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Dialer == nil {
		return nil, fmt.Errorf("client: nil dialer")
	}
	if len(cfg.FMSAddrs) == 0 || len(cfg.OSSAddrs) == 0 {
		return nil, fmt.Errorf("client: need at least one FMS and one OSS")
	}
	var h obs.Handle
	if cfg.Obs != nil {
		h = *cfg.Obs
	}
	if h.Name == "" {
		h.Name = "client"
	}
	if h.Reg == nil {
		h.Reg = telemetry.NewRegistry()
	}
	reg := h.Reg
	c := &Client{
		uid:          cfg.UID,
		gid:          cfg.GID,
		serialFanOut: cfg.SerialFanOut,
		telem:        &clientTelem{Handle: &h},
		traceBase:    (nextClientID.Add(1) & 0xffff) << 48,
	}
	c.res = newResilience(cfg.OpTimeout, cfg.Retry, cfg.Breaker, cfg.Now)
	// Every endpoint reports the map version its server stamps; a lease
	// stamp (only a DMS writes one) is booked to the partition the installed
	// map places the address in, so recall sequences of different partitions
	// never mix (see observeLease).
	c.dial = func(addr string) (*endpoint, error) {
		return dialEndpoint(cfg.Dialer, addr, cfg.Link, c.telem, c.res, c.observeMap,
			func(seq uint64) { c.observeLease(addr, seq) })
	}
	c.eps = make(map[string]*endpoint)
	c.dmsAddr = cfg.DMSAddr
	if _, err := c.endpointAt(cfg.DMSAddr); err != nil {
		return nil, fmt.Errorf("client: dial DMS: %w", err)
	}
	for i, a := range cfg.FMSAddrs {
		if _, err := c.endpointAt(a); err != nil {
			c.Close()
			return nil, fmt.Errorf("client: dial FMS %s: %w", a, err)
		}
		c.static = append(c.static, wire.Member{ID: int32(i), Addr: a})
	}
	for _, a := range cfg.OSSAddrs {
		cl, err := c.endpointAt(a)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("client: dial OSS %s: %w", a, err)
		}
		c.oss = append(c.oss, cl)
	}
	oids := make([]int, len(c.oss))
	for i := range oids {
		oids[i] = i
	}
	c.oring = chash.NewRing(0, oids...)
	// The client label keeps several clients sharing one registry (a
	// benchmark fleet) from clobbering each other's gauges and counters.
	c.label = telemetry.L("client", fmt.Sprintf("%d", c.traceBase>>48))
	if !cfg.DisableCache {
		c.cache = newDirCache(cfg.Lease, cfg.Now, cfg.CacheEntries, !cfg.DisableLeaseCoherence, newCacheMetrics(reg, c.label))
	}
	reg.GaugeFunc(MetricInflight, func() float64 {
		return float64(c.telem.inflight.Load())
	}, c.label)
	if c.cache != nil {
		reg.GaugeFunc(MetricDirCacheSize, func() float64 {
			return float64(c.cache.size())
		}, c.label)
	}
	if err := c.bootstrap(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close tears down every connection, in parallel across servers, and
// unregisters the client's gauges so shared registries don't accumulate
// dead per-client series.
func (c *Client) Close() error {
	c.telem.Reg.Unregister(MetricInflight, c.label)
	c.telem.Reg.Unregister(MetricDirCacheSize, c.label)
	if c.cache != nil {
		c.cache.met.unregister(c.telem.Reg, c.label)
	}
	eps := c.endpoints()
	c.fanOut(opCtx{}, "close", len(eps), func(_ opCtx, i int) (time.Duration, error) {
		eps[i].Close()
		return 0, nil
	})
	return nil
}

// Trips returns the total network round trips issued by this client, the
// unit the paper's latency figures are normalized in.
func (c *Client) Trips() uint64 {
	var n uint64
	for _, cl := range c.endpoints() {
		n += cl.Trips()
	}
	return n
}

// Cost returns the client's cumulative modeled time across every call:
// link delays plus server-reported service times, minus the time parallel
// fan-out groups saved over issuing the same calls serially (each group
// costs its slowest branch, not the sum). Per-operation virtual latency is
// the delta of Cost around the operation.
func (c *Client) Cost() time.Duration {
	var d time.Duration
	for _, cl := range c.endpoints() {
		d += cl.VirtualTime()
	}
	return d - time.Duration(c.parSavedNS.Load())
}

// CacheStats returns directory-cache inode hits and misses (zero when
// disabled).
func (c *Client) CacheStats() (hits, misses uint64) {
	if c.cache == nil {
		return 0, 0
	}
	return c.cache.stats()
}

// CacheDetail returns the full directory-cache snapshot: per-kind hit
// counters, stale misses, occupancy and the coherence watermarks. Zero
// value when the cache is disabled.
func (c *Client) CacheDetail() CacheDetail {
	if c.cache == nil {
		return CacheDetail{}
	}
	return c.cache.detail()
}

// Map returns the client's installed cluster map: the solo map of the
// address it dialed (version 0) until a server serves a real one.
func (c *Client) Map() *wire.ClusterMap { return c.view.Load().m }

// ossFor returns the object store endpoint owning block blk of u.
func (c *Client) ossFor(u uuid.UUID, blk uint64) *endpoint {
	return c.oss[c.oring.Locate(objstore.BlockKey(u, blk))]
}

// resolveDir returns the d-inode of a cleaned directory path, from cache if
// possible — including a cached negative entry, which answers ENOENT with
// zero trips — otherwise via one DMS lookup (which returns the whole
// ancestor chain; every link is cached under its granted lease). It is the
// one resolve, and what else rides the lookup's trip is decided here:
//
//   - When the cache has observed recalls from the lookup's partition that it
//     has not applied, the missed entries are fetched alongside, so a
//     coherence catch-up costs exactly one DMS trip — the same as the plain
//     miss (without it appliedSeq would never advance and every previously
//     cached entry would stay degraded to a miss until individually
//     re-fetched).
//   - first, when non-nil, is a listing's wish for the directory's first
//     subdirectory page: filled from the listing cache on an inode hit, and
//     on a miss fetched with the lookup — the two DMS round trips a cold
//     readdir would open with collapse into one. The page is speculative, so
//     it is asked for only where it costs no trip: not for a partition cut,
//     whose inode lives with its parent's partition while its listing lives
//     on the partition it roots (the pages then go to their own leader
//     unseeded).
//
// oc is the logical operation's context; its span is annotated with the
// cache outcome.
func (c *Client) resolveDir(cleaned string, oc opCtx, first *listPage) (layout.DirInode, error) {
	if c.cache != nil {
		if ino, ok := c.cache.get(cleaned); ok {
			note := "cache=hit "
			if first != nil {
				// With the complete listing cached too, the DMS branch of
				// this readdir costs zero trips.
				if first.ents, first.ok = c.cache.getList(cleaned); first.ok {
					note = "cache=hit+list "
				}
			}
			if oc.sp != nil {
				oc.sp.Annotate(note + cleaned)
			}
			return ino, nil
		}
		if c.cache.negHit(cleaned) {
			if oc.sp != nil {
				oc.sp.Annotate("cache=neg " + cleaned)
			}
			return nil, wire.StatusNotFound.Err()
		}
		if oc.sp != nil {
			oc.sp.Annotate("cache=miss " + cleaned)
		}
	}
	pm := c.Map()
	at := pm.Locate(cleaned)
	enc := wire.GetEnc()
	defer enc.Free()
	var buf [3]wire.SubReq
	subs := append(buf[:0], wire.SubReq{Op: wire.OpLookupDir, Body: enc.Str(cleaned).U32(c.uid).U32(c.gid).Bytes()})
	paged := first != nil && at == pm.LocateList(cleaned)
	if paged {
		subs = append(subs, wire.SubReq{Op: wire.OpReaddirSubdirs, Body: c.subdirPageBody(cleaned, "", 0)})
	}
	// The recall catch-up is per-source: `since` is the watermark of the
	// partition this lookup routes to. If a retry inside dms reroutes to a
	// different partition, the recall response is still applied under the
	// source that actually served it — recall entries are genuine for their
	// server regardless of the watermark they were requested from (a stale
	// `since` at worst costs a reset).
	subs, recallAt := c.withRecall(subs, at)
	resps, src, err := c.dms(oc, cleaned, false, subs...)
	if err != nil {
		return nil, err
	}
	// Cache what came back first, then apply the recalls: the fresh entries
	// carry their grant sequence, so any newer recall in the send still
	// drops them, while older ones leave them alone.
	defer c.applyRecall(src, resps, recallAt)
	ino, err := c.finishLookup(src, cleaned, resps[0].Status, resps[0].Body)
	if err != nil || !paged {
		return ino, err
	}
	if st := resps[1].Status; st != wire.StatusOK {
		return nil, st.Err()
	}
	if *first, err = decodeEntryPage(resps[1].Body, true); err != nil {
		return nil, err
	}
	c.cacheListing(src, cleaned, *first)
	return ino, nil
}

// finishLookup turns an OpLookupDir outcome served by partition src into
// the resolved inode, caching the ancestor chain on success and the
// negative entry (under its grant) on ENOENT.
func (c *Client) finishLookup(src uint32, cleaned string, st wire.Status, resp []byte) (layout.DirInode, error) {
	if st == wire.StatusNotFound {
		if c.cache != nil {
			if g := wire.DecodeLeaseGrant(wire.NewDec(resp)); g.Valid() {
				c.cache.putNegFrom(src, cleaned, g)
			}
		}
		return nil, st.Err()
	}
	if st != wire.StatusOK {
		return nil, st.Err()
	}
	return c.cacheLookupChainFrom(src, cleaned, resp)
}

// cacheLookupChainFrom decodes an OpLookupDir response served by partition
// src — the ancestor chain of cleaned plus the trailing lease grant —
// caching every link under the grant (keyed to src's watermarks) and
// returning the target's inode.
func (c *Client) cacheLookupChainFrom(src uint32, cleaned string, resp []byte) (layout.DirInode, error) {
	d := wire.NewDec(resp)
	n := d.Count(4 + 4) // an empty path and an empty inode
	type link struct {
		path string
		ino  layout.DirInode
	}
	links := make([]link, 0, n)
	for i := 0; i < n; i++ {
		p := d.Str()
		ino := layout.DirInode(d.Blob())
		if d.Err() != nil {
			return nil, d.Err()
		}
		links = append(links, link{p, ino})
	}
	g := wire.DecodeLeaseGrant(d)
	var target layout.DirInode
	for _, l := range links {
		if c.cache != nil {
			c.cache.putFrom(src, l.path, l.ino, g)
		}
		if l.path == cleaned {
			target = l.ino
		}
	}
	if target == nil {
		return nil, wire.StatusIO.Err()
	}
	return target, nil
}

// splitPath cleans path and resolves its parent directory.
func (c *Client) splitPath(path string, oc opCtx) (parent layout.DirInode, cleaned, name string, err error) {
	cleaned, err = fspath.Clean(path)
	if err != nil {
		return nil, "", "", wire.StatusInval.Err()
	}
	dir, name := fspath.Split(cleaned)
	if name == "" {
		return nil, "", "", wire.StatusInval.Err()
	}
	parent, err = c.resolveDir(dir, oc, nil)
	return parent, cleaned, name, err
}

// Kind discriminates what an Attr describes.
type Kind uint8

const (
	// KindFile is a regular file.
	KindFile Kind = iota
	// KindDir is a directory.
	KindDir
)

// Attr is the stat result for a file or directory. Kind tells which; IsDir
// is the same information as a bool, kept for existing callers.
type Attr struct {
	Kind      Kind
	IsDir     bool
	Mode      uint32
	UID, GID  uint32
	Size      uint64
	BlockSize uint32
	CTime     int64
	MTime     int64
	ATime     int64
	UUID      uuid.UUID
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string, mode uint32) error {
	return c.MkdirContext(context.Background(), path, mode)
}

// MkdirContext is Mkdir under ctx (see the package locofs docs on how a
// context bounds an operation's RPC attempts and retry waits).
func (c *Client) MkdirContext(ctx context.Context, path string, mode uint32) (err error) {
	oc := c.startOpCtx(ctx, "Mkdir")
	defer func() { oc.finish(err) }()
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return wire.StatusInval.Err()
	}
	body := wire.NewEnc().Str(cleaned).U32(mode).U32(c.uid).U32(c.gid).Bytes()
	st, resp, src, err := c.dmsCall(oc, cleaned, false, wire.OpMkdir, body)
	if err != nil {
		return err
	}
	if st == wire.StatusOK && c.cache != nil {
		// Self-apply: drop the negative entry and the parent's listing this
		// creation invalidates, and account the published recalls (carried
		// in the response trailer) as applied — no recall fetch needed for
		// the client's own writes.
		d := wire.NewDec(resp)
		d.UUID() // created directory's uuid
		last, n := decodePub(d)
		c.cache.selfCreatedFrom(src, cleaned, last, n)
	}
	return st.Err()
}

// Rmdir removes an empty directory. LocoFS cannot know from the DMS alone
// whether any FMS still holds files of the directory, so the client probes
// every FMS first — the fan-out the paper charges rmdir with (§4.2.1).
func (c *Client) Rmdir(path string) error {
	return c.RmdirContext(context.Background(), path)
}

// RmdirContext is Rmdir under ctx.
func (c *Client) RmdirContext(ctx context.Context, path string) (err error) {
	oc := c.startOpCtx(ctx, "Rmdir")
	defer func() { oc.finish(err) }()
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return wire.StatusInval.Err()
	}
	ino, err := c.resolveDir(cleaned, oc, nil)
	if err != nil {
		return err
	}
	// Probe every FMS in parallel; the first non-empty (or failed) probe
	// cancels the branches not yet started, so a busy directory answers at
	// the speed of its first refusal rather than a full serial sweep.
	// During a migration window the probe set is the union of the current
	// and previous FMS sets — a not-yet-migrated file must still veto the
	// rmdir.
	fmsEps := c.view.Load().fms
	probe := wire.NewEnc().UUID(ino.UUID()).Bytes()
	err = c.fanOut(oc, "probe", len(fmsEps), func(boc opCtx, i int) (time.Duration, error) {
		st, resp, virt, err := fmsEps[i].Call(boc, wire.OpDirHasFiles, probe)
		if err != nil {
			return virt, err
		}
		if st != wire.StatusOK {
			return virt, st.Err()
		}
		if wire.NewDec(resp).Bool() {
			return virt, wire.StatusNotEmpty.Err()
		}
		return virt, nil
	})
	if err != nil {
		return err
	}
	body := wire.NewEnc().Str(cleaned).U32(c.uid).U32(c.gid).Bytes()
	st, resp, src, err := c.dmsCall(oc, cleaned, false, wire.OpRmdir, body)
	if err != nil {
		return err
	}
	if st == wire.StatusOK && c.cache != nil {
		last, n := decodePub(wire.NewDec(resp))
		c.cache.selfRemovedFrom(src, cleaned, last, n)
	}
	return st.Err()
}

// DirEntry is one readdir result.
type DirEntry struct {
	Name  string
	IsDir bool
	UUID  uuid.UUID
}

// ReaddirPageSize is the number of entries fetched per server round trip
// when listing a directory; it bounds response sizes for huge directories.
const ReaddirPageSize = 1024

// listPage is one page of a server's directory listing; the zero value is
// "nothing fetched yet".
type listPage struct {
	ok   bool // a page (or the cached complete listing) is held
	ents []DirEntry
	more bool
	// remaining is the server's exact count of entries beyond this page, or
	// -1 when it did not report one (more then only says whether any remain).
	remaining int
	// grant is the listing lease, present (Valid) only on a complete DMS
	// subdirectory listing.
	grant wire.LeaseGrant
}

// decodeEntryPage parses a paged readdir response.
func decodeEntryPage(resp []byte, isDir bool) (listPage, error) {
	d := wire.NewDec(resp)
	n := d.Count(4 + uuid.Size) // an empty name and a UUID
	p := listPage{ok: true, more: d.Bool(), remaining: -1, ents: make([]DirEntry, 0, n)}
	for i := 0; i < n; i++ {
		p.ents = append(p.ents, DirEntry{Name: d.Str(), IsDir: isDir, UUID: d.UUID()})
	}
	if d.Remaining() > 0 { // optional trailing exact remaining count
		p.remaining = int(d.U32())
	}
	if d.Err() != nil {
		return listPage{}, d.Err()
	}
	p.grant = wire.DecodeLeaseGrant(d)
	return p, nil
}

// subdirPageBody is the OpReaddirSubdirs request for the page of cleaned's
// subdirectories skip pages after cursor.
func (c *Client) subdirPageBody(cleaned, cursor string, skip uint32) []byte {
	return wire.NewEnc().Str(cleaned).U32(c.uid).U32(c.gid).
		Str(cursor).U32(ReaddirPageSize).U32(skip).Bytes()
}

// cacheListing installs a first subdirectory page served by partition src in
// the directory cache when it is the complete listing and carries a listing
// lease, so the next readdir's DMS branch costs zero trips.
func (c *Client) cacheListing(src uint32, cleaned string, p listPage) {
	if c.cache != nil && p.grant.Valid() && !p.more {
		c.cache.putListFrom(src, cleaned, p.ents, p.grant)
	}
}

// Readdir lists a directory: subdirectory entries from the DMS plus file
// entries from every FMS, fetched in size-bounded pages, merged and
// name-sorted. The DMS and all FMSes are paged in parallel (one fan-out
// branch per server), and each server's follow-up pages are prefetched
// several to a round trip (see readPages).
func (c *Client) Readdir(path string) ([]DirEntry, error) {
	return c.ReaddirContext(context.Background(), path)
}

// ReaddirContext is Readdir under ctx.
func (c *Client) ReaddirContext(ctx context.Context, path string) (out []DirEntry, err error) {
	oc := c.startOpCtx(ctx, "Readdir")
	defer func() { oc.finish(err) }()
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return nil, wire.StatusInval.Err()
	}
	var first listPage
	ino, err := c.resolveDir(cleaned, oc, &first)
	if err != nil {
		return nil, err
	}
	// The subdirectory pages come from the partition owning cleaned's
	// listing.
	listEp, listSrc, err := c.routeDMS(cleaned, true)
	if err != nil {
		return nil, err
	}
	subBody := func(cursor string, skip uint32) []byte { return c.subdirPageBody(cleaned, cursor, skip) }
	fileBody := func(cursor string, skip uint32) []byte {
		return wire.NewEnc().UUID(ino.UUID()).Str(cursor).
			U32(ReaddirPageSize).U32(skip).Bytes()
	}
	// Branch 0 pages the DMS subdirectory listing (continuing from the
	// seeded first page, if any, else caching a complete first page as the
	// seeded path does); branches 1..n page one FMS each. During
	// a migration window the FMS set is the union of the current and
	// previous members, so files not yet migrated still list.
	fmsEps := c.view.Load().fms
	parts := make([][]DirEntry, 1+len(fmsEps))
	err = c.fanOut(oc, "page", len(parts), func(boc opCtx, i int) (time.Duration, error) {
		var virt time.Duration
		var err error
		if i == 0 {
			parts[0], virt, err = c.readPages(listEp, boc, wire.OpReaddirSubdirs, subBody, true, first,
				func(p listPage) { c.cacheListing(listSrc, cleaned, p) })
		} else {
			parts[i], virt, err = c.readPages(fmsEps[i-1], boc, wire.OpReaddirFiles, fileBody, false, listPage{}, nil)
		}
		return virt, err
	})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	// A file mid-migration (installed at its new owner, source delete
	// pending) is listed by both servers; collapse exact duplicates. The
	// sort groups same-name entries, so only the current run needs
	// scanning.
	dedup := out[:0]
	for _, e := range out {
		dup := false
		for j := len(dedup) - 1; j >= 0 && dedup[j].Name == e.Name; j-- {
			if dedup[j] == e {
				dup = true
				break
			}
		}
		if !dup {
			dedup = append(dedup, e)
		}
	}
	return dedup, nil
}

// StatDir stats a path known to be a directory — a kind-specific shortcut
// for Stat that skips the FMS probe (one DMS round trip, or zero on a
// cache hit). A file path answers ENOENT.
func (c *Client) StatDir(path string) (*Attr, error) {
	return c.StatDirContext(context.Background(), path)
}

// StatDirContext is StatDir under ctx.
func (c *Client) StatDirContext(ctx context.Context, path string) (a *Attr, err error) {
	oc := c.startOpCtx(ctx, "StatDir")
	defer func() { oc.finish(err) }()
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return nil, wire.StatusInval.Err()
	}
	ino, err := c.resolveDir(cleaned, oc, nil)
	if err != nil {
		return nil, err
	}
	return &Attr{
		Kind:  KindDir,
		IsDir: true,
		Mode:  ino.Mode(),
		UID:   ino.UID(), GID: ino.GID(),
		CTime: ino.CTime(),
		UUID:  ino.UUID(),
	}, nil
}

// Create makes an empty file (the mdtest "touch"): resolve the parent
// directory (cached: zero trips) and issue one FMS create.
func (c *Client) Create(path string, mode uint32) error {
	return c.CreateContext(context.Background(), path, mode)
}

// CreateContext is Create under ctx.
func (c *Client) CreateContext(ctx context.Context, path string, mode uint32) (err error) {
	oc := c.startOpCtx(ctx, "Create")
	defer func() { oc.finish(err) }()
	parent, _, name, err := c.splitPath(path, oc)
	if err != nil {
		return err
	}
	// While a migration window is open the file may still live only at its
	// previous owner; creating blindly at the new owner would succeed and
	// then be clobbered when the old copy migrates over. Check the previous
	// owner first — one extra read, paid only during the window.
	if v := c.view.Load(); v.window() {
		key := fms.FileKey(parent.UUID(), name)
		if pe := v.prevOwner(key); pe != nil && pe != v.owner(key) {
			probe := wire.NewEnc().UUID(parent.UUID()).Str(name).Bytes()
			pst, _, _, perr := pe.Call(oc, wire.OpStatFile, probe)
			if perr != nil {
				return perr
			}
			if pst == wire.StatusOK {
				return wire.StatusExist.Err()
			}
		}
	}
	enc := wire.GetEnc()
	body := enc.UUID(parent.UUID()).Str(name).
		U32(mode).U32(c.uid).U32(c.gid).Bool(false).Bytes()
	st, _, err := c.fmsCall(oc, parent.UUID(), name, wire.OpCreateFile, body)
	enc.Free()
	if err != nil {
		return err
	}
	return st.Err()
}

// StatFile stats a path known to be a regular file — a kind-specific
// shortcut for Stat that goes straight to the file's FMS (one round trip).
// A directory path answers ENOENT.
func (c *Client) StatFile(path string) (*Attr, error) {
	return c.StatFileContext(context.Background(), path)
}

// StatFileContext is StatFile under ctx.
func (c *Client) StatFileContext(ctx context.Context, path string) (a *Attr, err error) {
	oc := c.startOpCtx(ctx, "StatFile")
	defer func() { oc.finish(err) }()
	parent, _, name, err := c.splitPath(path, oc)
	if err != nil {
		return nil, err
	}
	m, err := c.statOn(parent.UUID(), name, oc)
	if err != nil {
		return nil, err
	}
	return metaToAttr(m), nil
}

func (c *Client) statOn(dir uuid.UUID, name string, oc opCtx) (*fms.FileMeta, error) {
	enc := wire.GetEnc()
	body := enc.UUID(dir).Str(name).Bytes()
	st, resp, err := c.fmsCall(oc, dir, name, wire.OpStatFile, body)
	enc.Free()
	if err != nil {
		return nil, err
	}
	if st != wire.StatusOK {
		return nil, st.Err()
	}
	d := wire.NewDec(resp)
	a, ct := d.Blob(), d.Blob()
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &fms.FileMeta{Access: layout.FileAccess(a), Content: layout.FileContent(ct)}, nil
}

func metaToAttr(m *fms.FileMeta) *Attr {
	return &Attr{
		Kind: KindFile,
		Mode: m.Access.Mode(),
		UID:  m.Access.UID(), GID: m.Access.GID(),
		Size:      m.Content.Size(),
		BlockSize: m.Content.BlockSize(),
		CTime:     m.Access.CTime(),
		MTime:     m.Content.MTime(),
		ATime:     m.Content.ATime(),
		UUID:      m.Content.UUID(),
	}
}

// Stat stats a path of any kind and reports what it found in Attr.Kind
// (KindFile or KindDir). It asks the file's FMS first (files dominate) and
// falls back to the DMS for directories; callers that already know the
// kind can use the StatFile/StatDir shortcuts and skip the probe.
func (c *Client) Stat(path string) (*Attr, error) {
	return c.StatContext(context.Background(), path)
}

// StatContext is Stat under ctx.
func (c *Client) StatContext(ctx context.Context, path string) (*Attr, error) {
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return nil, wire.StatusInval.Err()
	}
	if cleaned == "/" {
		return c.StatDirContext(ctx, cleaned)
	}
	a, err := c.StatFileContext(ctx, cleaned)
	if err == nil {
		return a, nil
	}
	if wire.StatusOf(err) != wire.StatusNotFound {
		return nil, err
	}
	return c.StatDirContext(ctx, cleaned)
}

// Remove deletes a file and its data blocks. With the parent directory
// cached, removing an empty file is one round trip, to the file's FMS; a
// file holding data adds one parallel round to the object store servers
// that own its blocks, which the FMS's reply (UUID, size, block size)
// names without asking anyone.
func (c *Client) Remove(path string) error {
	return c.RemoveContext(context.Background(), path)
}

// RemoveContext is Remove under ctx.
func (c *Client) RemoveContext(ctx context.Context, path string) (err error) {
	oc := c.startOpCtx(ctx, "Remove")
	defer func() { oc.finish(err) }()
	parent, _, name, err := c.splitPath(path, oc)
	if err != nil {
		return err
	}
	body := wire.NewEnc().UUID(parent.UUID()).Str(name).U32(c.uid).U32(c.gid).Bytes()
	st, resp, err := c.fmsCall(oc, parent.UUID(), name, wire.OpRemoveFile, body)
	if err != nil {
		return err
	}
	if st != wire.StatusOK {
		return st.Err()
	}
	u, n := removedExtent(resp)
	// During a migration window the file may exist at both owners (exported
	// and installed, source delete pending); removing only one copy would
	// let the coordinator's next pass resurrect the file from the other.
	// Best-effort remove at the previous owner too — ENOENT there just
	// means there was no second copy.
	if v := c.view.Load(); v.window() {
		key := fms.FileKey(parent.UUID(), name)
		if pe := v.prevOwner(key); pe != nil && pe != v.owner(key) {
			// The two copies share the UUID; reclaim what the larger covers.
			if st, presp, _, err := pe.Call(oc, wire.OpRemoveFile, body); err == nil && st == wire.StatusOK {
				if _, pn := removedExtent(presp); pn > n {
					n = pn
				}
			}
		}
	}
	c.deleteBlocks(oc, u, 0, n)
	return nil
}

// removedExtent decodes an OpRemoveFile reply: the file's UUID and the
// number of blocks its size covers.
func removedExtent(resp []byte) (uuid.UUID, uint64) {
	d := wire.NewDec(resp)
	u, size, bs := d.UUID(), d.U64(), d.U32()
	if d.Err() != nil || bs == 0 {
		return u, 0
	}
	return u, blocksFor(size, bs)
}

// blocksFor is the number of blocks of size bs that size bytes span.
func blocksFor(size uint64, bs uint32) uint64 {
	n := size / uint64(bs)
	if size%uint64(bs) != 0 {
		n++
	}
	return n
}

// deleteBlocks reclaims blocks [from, to) of file u, in parallel on the
// object store servers that own at least one of them: the range is walked
// with the placement ring until every server has been named, so an empty
// range calls none. Reclaim is best-effort: failures are ignored (the
// blocks leak; a UUID is never reused).
func (c *Client) deleteBlocks(oc opCtx, u uuid.UUID, from, to uint64) {
	owners := make([]int, 0, len(c.oss))
	named := make([]bool, len(c.oss))
	for blk := from; blk < to && len(owners) < len(c.oss); blk++ {
		if i := c.oring.Locate(objstore.BlockKey(u, blk)); !named[i] {
			named[i] = true
			owners = append(owners, i)
		}
	}
	body := wire.NewEnc().UUID(u).U64(from).U64(to).Bytes()
	c.fanOut(oc, "reclaim", len(owners), func(boc opCtx, i int) (time.Duration, error) {
		_, _, virt, _ := c.oss[owners[i]].Call(boc, wire.OpDeleteBlocks, body)
		return virt, nil
	})
}

// Chmod changes a file's permission bits (access part only, Table 1).
func (c *Client) Chmod(path string, mode uint32) error {
	return c.ChmodContext(context.Background(), path, mode)
}

// ChmodContext is Chmod under ctx.
func (c *Client) ChmodContext(ctx context.Context, path string, mode uint32) (err error) {
	oc := c.startOpCtx(ctx, "Chmod")
	defer func() { oc.finish(err) }()
	parent, _, name, err := c.splitPath(path, oc)
	if err != nil {
		return err
	}
	body := wire.NewEnc().UUID(parent.UUID()).Str(name).U32(mode).U32(c.uid).Bytes()
	st, _, err := c.fmsCall(oc, parent.UUID(), name, wire.OpChmodFile, body)
	if err != nil {
		return err
	}
	return st.Err()
}

// Chown changes a file's owner (access part only).
func (c *Client) Chown(path string, uid, gid uint32) error {
	return c.ChownContext(context.Background(), path, uid, gid)
}

// ChownContext is Chown under ctx.
func (c *Client) ChownContext(ctx context.Context, path string, uid, gid uint32) (err error) {
	oc := c.startOpCtx(ctx, "Chown")
	defer func() { oc.finish(err) }()
	parent, _, name, err := c.splitPath(path, oc)
	if err != nil {
		return err
	}
	body := wire.NewEnc().UUID(parent.UUID()).Str(name).U32(uid).U32(gid).U32(c.uid).Bytes()
	st, _, err := c.fmsCall(oc, parent.UUID(), name, wire.OpChownFile, body)
	if err != nil {
		return err
	}
	return st.Err()
}

// Access checks permissions on a file (reads the access part only).
func (c *Client) Access(path string, wantWrite bool) error {
	return c.AccessContext(context.Background(), path, wantWrite)
}

// AccessContext is Access under ctx.
func (c *Client) AccessContext(ctx context.Context, path string, wantWrite bool) (err error) {
	oc := c.startOpCtx(ctx, "Access")
	defer func() { oc.finish(err) }()
	parent, _, name, err := c.splitPath(path, oc)
	if err != nil {
		return err
	}
	body := wire.NewEnc().UUID(parent.UUID()).Str(name).U32(c.uid).U32(c.gid).Bool(wantWrite).Bytes()
	st, _, err := c.fmsCall(oc, parent.UUID(), name, wire.OpAccessFile, body)
	if err != nil {
		return err
	}
	return st.Err()
}

// Utimens sets a file's atime/mtime (content part only).
func (c *Client) Utimens(path string, atime, mtime int64) error {
	return c.UtimensContext(context.Background(), path, atime, mtime)
}

// UtimensContext is Utimens under ctx.
func (c *Client) UtimensContext(ctx context.Context, path string, atime, mtime int64) (err error) {
	oc := c.startOpCtx(ctx, "Utimens")
	defer func() { oc.finish(err) }()
	parent, _, name, err := c.splitPath(path, oc)
	if err != nil {
		return err
	}
	body := wire.NewEnc().UUID(parent.UUID()).Str(name).I64(atime).I64(mtime).Bytes()
	st, _, err := c.fmsCall(oc, parent.UUID(), name, wire.OpUtimensFile, body)
	if err != nil {
		return err
	}
	return st.Err()
}

// Truncate sets a file's size and trims its data blocks.
func (c *Client) Truncate(path string, size uint64) error {
	return c.TruncateContext(context.Background(), path, size)
}

// TruncateContext is Truncate under ctx.
func (c *Client) TruncateContext(ctx context.Context, path string, size uint64) (err error) {
	oc := c.startOpCtx(ctx, "Truncate")
	defer func() { oc.finish(err) }()
	parent, _, name, err := c.splitPath(path, oc)
	if err != nil {
		return err
	}
	body := wire.NewEnc().UUID(parent.UUID()).Str(name).U64(size).Bytes()
	st, resp, err := c.fmsCall(oc, parent.UUID(), name, wire.OpTruncateFile, body)
	if err != nil {
		return err
	}
	if st != wire.StatusOK {
		return st.Err()
	}
	d := wire.NewDec(resp)
	u, oldSize, bs := d.UUID(), d.U64(), d.U32()
	if d.Err() == nil && size < oldSize && bs > 0 {
		c.deleteBlocks(oc, u, blocksFor(size, bs), blocksFor(oldSize, bs))
	}
	return nil
}

// ChmodDir changes a directory's permission bits on the DMS.
func (c *Client) ChmodDir(path string, mode uint32) error {
	return c.ChmodDirContext(context.Background(), path, mode)
}

// ChmodDirContext is ChmodDir under ctx.
func (c *Client) ChmodDirContext(ctx context.Context, path string, mode uint32) (err error) {
	oc := c.startOpCtx(ctx, "ChmodDir")
	defer func() { oc.finish(err) }()
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return wire.StatusInval.Err()
	}
	body := wire.NewEnc().Str(cleaned).U32(mode).U32(c.uid).U32(c.gid).Bytes()
	st, resp, src, err := c.dmsCall(oc, cleaned, false, wire.OpChmodDir, body)
	if err != nil {
		return err
	}
	if st == wire.StatusOK && c.cache != nil {
		last, n := decodePub(wire.NewDec(resp))
		c.cache.selfPatchedFrom(src, cleaned, last, n)
	}
	return st.Err()
}

// RenameDir renames a directory; the DMS relocates the subtree's d-inodes
// (a prefix move on the tree store) while files and data stay put (§3.4.2).
// It returns the number of relocated directory inodes.
func (c *Client) RenameDir(oldPath, newPath string) (int, error) {
	return c.RenameDirContext(context.Background(), oldPath, newPath)
}

// RenameDirContext is RenameDir under ctx. Against a sharded DMS a rename
// whose source and destination live on different partitions runs as a
// two-partition commit coordinated by the source leader (DESIGN.md §16) —
// same result, roughly double the cost of a partition-local rename.
func (c *Client) RenameDirContext(ctx context.Context, oldPath, newPath string) (n int, err error) {
	oc := c.startOpCtx(ctx, "RenameDir")
	defer func() { oc.finish(err) }()
	oldC, err := fspath.Clean(oldPath)
	if err != nil {
		return 0, wire.StatusInval.Err()
	}
	newC, err := fspath.Clean(newPath)
	if err != nil {
		return 0, wire.StatusInval.Err()
	}
	body := wire.NewEnc().Str(oldC).Str(newC).U32(c.uid).U32(c.gid).Bytes()
	// The source partition's leader coordinates; route by oldC.
	st, resp, src, err := c.dmsCall(oc, oldC, false, wire.OpRenameDir, body)
	if err != nil {
		return 0, err
	}
	if st != wire.StatusOK {
		return 0, st.Err()
	}
	d := wire.NewDec(resp)
	moved := d.U64()
	if c.cache != nil {
		last, n := decodePub(d)
		if pm := c.Map(); pm.Locate(oldC) == pm.Locate(newC) {
			c.cache.selfRenamedFrom(src, oldC, newC, last, n)
		} else {
			// Two partitions published recalls for this rename but the
			// trailer carries only the source side's. Drop both subtrees
			// unconditionally and account just the source watermarks; the
			// destination side's recalls arrive through its own channel.
			c.cache.invalidateSubtree(oldC)
			c.cache.invalidateSubtree(newC)
			c.cache.accountPub(src, last, n)
		}
	}
	return int(moved), nil
}

// RenameFile renames a file. Only the metadata object moves (its placement
// key directory_uuid + file_name changed); data blocks are addressed by the
// stable file UUID and never move (§3.4.2).
func (c *Client) RenameFile(oldPath, newPath string) error {
	return c.RenameFileContext(context.Background(), oldPath, newPath)
}

// RenameFileContext is RenameFile under ctx.
func (c *Client) RenameFileContext(ctx context.Context, oldPath, newPath string) (err error) {
	oc := c.startOpCtx(ctx, "RenameFile")
	defer func() { oc.finish(err) }()
	oldParent, _, oldName, err := c.splitPath(oldPath, oc)
	if err != nil {
		return err
	}
	newParent, _, newName, err := c.splitPath(newPath, oc)
	if err != nil {
		return err
	}
	m, err := c.statOn(oldParent.UUID(), oldName, oc)
	if err != nil {
		return err
	}
	body := wire.NewEnc().UUID(newParent.UUID()).Str(newName).
		U32(0).U32(0).U32(0).Bool(true).
		Blob(m.Access).Blob(m.Content).Bytes()
	st, _, err := c.fmsCall(oc, newParent.UUID(), newName, wire.OpCreateFile, body)
	if err != nil {
		return err
	}
	if st != wire.StatusOK {
		return st.Err()
	}
	rm := wire.NewEnc().UUID(oldParent.UUID()).Str(oldName).U32(c.uid).U32(c.gid).Bytes()
	st, _, err = c.fmsCall(oc, oldParent.UUID(), oldName, wire.OpRemoveFile, rm)
	if err != nil {
		return err
	}
	return st.Err()
}
