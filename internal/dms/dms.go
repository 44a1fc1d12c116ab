// Package dms implements the LocoFS Directory Metadata Server.
//
// The DMS is the single server that owns every directory inode (§3.1). A
// d-inode is stored as a key-value pair whose key is the directory's full
// path and whose value is a fixed 256-byte inode; the dirents of a
// directory's *subdirectories* are concatenated into one value keyed by the
// directory's UUID (§3.2.1). Running on an ordered (B+-tree) store keeps all
// paths under one directory adjacent, so directory rename is a prefix-range
// move (§3.4.3); the hash-store mode — kept for the paper's Fig 14
// comparison — must scan every record instead.
//
// Because all ancestors are local, a full ancestor existence + ACL check is
// a handful of local KV gets inside one request, never a cross-server walk.
package dms

import (
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/acl"
	"locofs/internal/fspath"
	"locofs/internal/kv"
	"locofs/internal/layout"
	"locofs/internal/obs"
	"locofs/internal/telemetry"
	"locofs/internal/trace"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// Key prefixes inside the DMS store. Directory inodes use "P:" + full path
// so the tree engine clusters a directory's subtree; subdir dirent lists use
// "S:" + uuid so rename (which changes paths, never UUIDs) leaves them
// untouched.
const (
	prefixPath    = "P:"
	prefixSubdirs = "S:"
)

// Options configures a DMS.
type Options struct {
	// Store is the backing KV store. Default: a fresh kv.BTreeStore.
	Store kv.Store
	// ServerID stamps generated UUIDs. Default 0.
	ServerID uint32
	// CheckPermissions enables ancestor ACL enforcement. Most experiments
	// run with it on (it is the work Fig 13 measures).
	CheckPermissions bool
	// Now supplies timestamps; defaults to time.Now().UnixNano.
	Now func() int64
	// LeaseDur is the read-lease duration granted to clients on lookup and
	// readdir responses (see lease.go). Default DefaultLeaseDur (30 s).
	LeaseDur time.Duration
	// Obs (nil = off) receives the lease table's recall and overflow events
	// and exports its coherence counters (see the MetricLease* names).
	Obs *obs.Handle
}

// PathInode pairs a directory path with its inode, for lookup responses that
// return the whole ancestor chain (the client caches every link, §3.2.2).
type PathInode struct {
	Path  string
	Inode layout.DirInode
}

// Server is the directory metadata server. Its exported metadata methods are
// the service logic; a partition.Node (internal/dms/partition) is what puts
// them on an rpc.Server.
type Server struct {
	mu        sync.RWMutex
	store     kv.Store
	ordered   kv.Ordered // nil when running on a hash store
	gen       *uuid.Generator
	checkPerm bool
	now       func() int64
	tombs     uint64 // dirent tombstones logged, for amortized compaction
	leases    *leaseTable

	// pin, when pinOn is set, overrides the clock: every replica of a
	// sharded partition applies a replicated op-log entry under the
	// leader-pinned timestamp the entry carries, so all replicas produce
	// byte-identical inodes (see PinClock).
	pin   atomic.Int64
	pinOn atomic.Bool

	// hot ranks the directories the RPC handlers touch most (space-saving
	// top-K; always on — a Touch is a few atomic-free map operations under
	// the sketch's own lock). Served by the admin plane's /debug/hot.
	hot *trace.TopK
}

// New returns a DMS with the root directory ("/") created.
func New(opts Options) *Server {
	st := opts.Store
	if st == nil {
		st = kv.NewBTreeStore()
	}
	s := &Server{
		store:     st,
		gen:       uuid.NewGenerator(opts.ServerID),
		checkPerm: opts.CheckPermissions,
		hot:       trace.NewTopK(trace.DefaultTopKCapacity),
	}
	if o, ok := st.(kv.Ordered); ok {
		s.ordered = o
	}
	if inst, ok := st.(*kv.Instrumented); ok && !inst.IsOrdered() {
		s.ordered = nil
	}
	userNow := opts.Now
	if userNow == nil {
		userNow = func() int64 { return time.Now().UnixNano() }
	}
	s.now = func() int64 {
		if s.pinOn.Load() {
			return s.pin.Load()
		}
		return userNow()
	}
	s.leases = newLeaseTable(opts.LeaseDur, s.now)
	s.leases.obs = opts.Obs
	if reg := opts.Obs.Registry(); reg != nil {
		s.registerMetrics(reg)
	}
	if _, ok := st.Get(pathKey("/")); !ok {
		root := layout.NewDirInode()
		root.SetUUID(uuid.Root)
		root.SetCTime(s.now())
		root.SetMode(layout.ModeDir | 0o777)
		st.Put(pathKey("/"), root)
	}
	s.restoreGenerator()
	return s
}

// restoreGenerator advances the UUID sequence past every identifier already
// in the store, so a server restarted on persistent state never re-issues a
// UUID.
func (s *Server) restoreGenerator() {
	sid := s.gen.SID()
	var maxFid uint64
	s.store.ForEach(func(k, v []byte) bool {
		if len(k) < 2 || string(k[:2]) != prefixPath || len(v) != layout.DirInodeSize {
			return true
		}
		u := layout.DirInode(v).UUID()
		if u.SID() == sid && u.FID() > maxFid {
			maxFid = u.FID()
		}
		return true
	})
	if maxFid > 0 {
		s.gen.Restore(maxFid)
	}
}

func pathKey(path string) []byte {
	return append([]byte(prefixPath), path...)
}

func subdirsKey(u uuid.UUID) []byte {
	return append([]byte(prefixSubdirs), u[:]...)
}

// Ordered reports whether the DMS runs on an ordered (tree) store.
func (s *Server) Ordered() bool { return s.ordered != nil }

// getInode fetches a directory inode by cleaned path. Caller holds s.mu.
func (s *Server) getInode(path string) (layout.DirInode, bool) {
	v, ok := s.store.Get(pathKey(path))
	if !ok || len(v) != layout.DirInodeSize {
		return nil, false
	}
	return layout.DirInode(v), true
}

// checkAncestors verifies that every proper ancestor of path exists and is
// traversable by (uid, gid). It returns the ancestor chain on success. This
// is the paper's single-server ACL walk: N local gets, zero network hops.
func (s *Server) checkAncestors(path string, uid, gid uint32) ([]PathInode, wire.Status) {
	ancestors := fspath.Ancestors(path)
	chain := make([]PathInode, 0, len(ancestors)+1)
	for _, a := range ancestors {
		ino, ok := s.getInode(a)
		if !ok {
			return nil, wire.StatusNotFound
		}
		if s.checkPerm && !acl.CanExec(ino.Mode(), ino.UID(), ino.GID(), uid, gid) {
			return nil, wire.StatusPerm
		}
		chain = append(chain, PathInode{Path: a, Inode: ino})
	}
	return chain, wire.StatusOK
}

// Mkdir creates a directory. It returns the new directory's UUID.
func (s *Server) Mkdir(path string, mode, uid, gid uint32) (uuid.UUID, wire.Status) {
	u, _, st := s.mkdirPub(path, mode, uid, gid)
	return u, st
}

// mkdirPub is Mkdir plus the lease recall the creation published (if any),
// which the RPC handler returns to the mutating client (see lease.go).
func (s *Server) mkdirPub(path string, mode, uid, gid uint32) (uuid.UUID, pubResult, wire.Status) {
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return uuid.Nil, pubResult{}, wire.StatusInval
	}
	if cleaned == "/" {
		return uuid.Nil, pubResult{}, wire.StatusExist
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	chain, st := s.checkAncestors(cleaned, uid, gid)
	if st != wire.StatusOK {
		return uuid.Nil, pubResult{}, st
	}
	parent := chain[len(chain)-1].Inode
	if s.checkPerm && !acl.CanWrite(parent.Mode(), parent.UID(), parent.GID(), uid, gid) {
		return uuid.Nil, pubResult{}, wire.StatusPerm
	}
	if _, ok := s.getInode(cleaned); ok {
		return uuid.Nil, pubResult{}, wire.StatusExist
	}
	ino := layout.NewDirInode()
	u := s.gen.Next()
	ino.SetUUID(u)
	ino.SetCTime(s.now())
	ino.SetMode(layout.ModeDir | (mode & layout.PermMask))
	ino.SetUID(uid)
	ino.SetGID(gid)
	s.store.Put(pathKey(cleaned), ino)
	parentPath, name := fspath.Split(cleaned)
	ent := layout.AppendDirent(nil, layout.Dirent{Name: name, UUID: u})
	s.store.AppendValue(subdirsKey(parent.UUID()), ent)
	return u, s.leases.bumpCreated(cleaned, parentPath), wire.StatusOK
}

// Lookup resolves path, enforcing the ancestor ACL walk, and returns the
// full chain of (ancestor..., target) inodes so clients can warm their
// directory cache from one round trip.
func (s *Server) Lookup(path string, uid, gid uint32) ([]PathInode, wire.Status) {
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return nil, wire.StatusInval
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookupLocked(cleaned, uid, gid)
}

// lookupLocked is Lookup past path cleaning. Caller holds s.mu (read).
func (s *Server) lookupLocked(cleaned string, uid, gid uint32) ([]PathInode, wire.Status) {
	chain, st := s.checkAncestors(cleaned, uid, gid)
	if st != wire.StatusOK {
		return nil, st
	}
	ino, ok := s.getInode(cleaned)
	if !ok {
		return nil, wire.StatusNotFound
	}
	return append(chain, PathInode{Path: cleaned, Inode: ino}), wire.StatusOK
}

// lookupLeased is the RPC handler's lookup: it additionally records lease
// grants for every inode in the returned chain — or a negative-entry grant
// when the path resolves ENOENT — while still under the read lock, so a
// grant can never be recorded for state a concurrent mutation already
// changed. The returned grant rides as a response-body trailer.
func (s *Server) lookupLeased(path string, uid, gid uint32) ([]PathInode, wire.LeaseGrant, wire.Status) {
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return nil, wire.LeaseGrant{}, wire.StatusInval
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain, st := s.lookupLocked(cleaned, uid, gid)
	switch st {
	case wire.StatusOK:
		return chain, s.leases.grantChain(chain), st
	case wire.StatusNotFound:
		return nil, s.leases.grantNeg(cleaned), st
	}
	return nil, wire.LeaseGrant{}, st
}

// Stat returns the inode of one directory (no chain).
func (s *Server) Stat(path string, uid, gid uint32) (layout.DirInode, wire.Status) {
	chain, st := s.Lookup(path, uid, gid)
	if st != wire.StatusOK {
		return nil, st
	}
	return chain[len(chain)-1].Inode, wire.StatusOK
}

// ReaddirSubdirs returns one page of path's subdirectory entries, in name
// order, starting strictly after cursor (empty cursor = from the start).
// more reports whether further pages exist. File entries live on the FMSs;
// the client merges. Paging bounds response size for huge directories.
func (s *Server) ReaddirSubdirs(path string, uid, gid uint32, cursor string, limit int) (ents []layout.Dirent, more bool, st wire.Status) {
	ents, remaining, st := s.ReaddirSubdirsAt(path, uid, gid, cursor, 0, limit)
	return ents, remaining > 0, st
}

// ReaddirSubdirsAt is ReaddirSubdirs with a page offset: it returns the
// skip-th page after cursor, letting a client prefetch several consecutive
// pages of one listing in a single batched round trip. remaining is the
// exact entry count beyond the returned page.
func (s *Server) ReaddirSubdirsAt(path string, uid, gid uint32, cursor string, skip, limit int) (ents []layout.Dirent, remaining int, st wire.Status) {
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return nil, 0, wire.StatusInval
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.readdirLocked(cleaned, uid, gid, cursor, skip, limit)
}

// readdirLocked is ReaddirSubdirsAt past path cleaning. Caller holds s.mu
// (read).
func (s *Server) readdirLocked(cleaned string, uid, gid uint32, cursor string, skip, limit int) (ents []layout.Dirent, remaining int, st wire.Status) {
	if _, st := s.checkAncestors(cleaned, uid, gid); st != wire.StatusOK {
		return nil, 0, st
	}
	ino, ok := s.getInode(cleaned)
	if !ok {
		return nil, 0, wire.StatusNotFound
	}
	if s.checkPerm && !acl.CanRead(ino.Mode(), ino.UID(), ino.GID(), uid, gid) {
		return nil, 0, wire.StatusPerm
	}
	list, _ := s.store.Get(subdirsKey(ino.UUID()))
	ents, remaining, err := layout.DirentPageAt(list, cursor, skip, limit)
	if err != nil {
		return nil, 0, wire.StatusIO
	}
	return ents, remaining, wire.StatusOK
}

// readdirLeased is the RPC handler's readdir: when the response is the
// complete listing (first page, nothing remaining) it additionally records
// a listing lease grant under the same read lock, so clients can serve
// whole-directory readdirs from cache until the listing changes. Partial
// pages return the zero grant — not cacheable.
func (s *Server) readdirLeased(path string, uid, gid uint32, cursor string, skip, limit int) (ents []layout.Dirent, remaining int, g wire.LeaseGrant, st wire.Status) {
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return nil, 0, wire.LeaseGrant{}, wire.StatusInval
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ents, remaining, st = s.readdirLocked(cleaned, uid, gid, cursor, skip, limit)
	if st == wire.StatusOK && cursor == "" && skip == 0 && remaining == 0 {
		g = s.leases.grantList(cleaned)
	}
	return ents, remaining, g, st
}

// Rmdir removes an empty directory. "Empty" here means no subdirectories;
// the client is responsible for first confirming with every FMS that the
// directory holds no files (§4.2.1 — the readdir/rmdir fan-out cost).
func (s *Server) Rmdir(path string, uid, gid uint32) wire.Status {
	_, st := s.rmdirPub(path, uid, gid)
	return st
}

// rmdirPub is Rmdir plus the lease recall the removal published (if any).
func (s *Server) rmdirPub(path string, uid, gid uint32) (pubResult, wire.Status) {
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return pubResult{}, wire.StatusInval
	}
	if cleaned == "/" {
		return pubResult{}, wire.StatusPerm
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	chain, st := s.checkAncestors(cleaned, uid, gid)
	if st != wire.StatusOK {
		return pubResult{}, st
	}
	parent := chain[len(chain)-1].Inode
	if s.checkPerm && !acl.CanWrite(parent.Mode(), parent.UID(), parent.GID(), uid, gid) {
		return pubResult{}, wire.StatusPerm
	}
	ino, ok := s.getInode(cleaned)
	if !ok {
		return pubResult{}, wire.StatusNotFound
	}
	if list, ok := s.store.Get(subdirsKey(ino.UUID())); ok {
		n, err := layout.CountDirents(list)
		if err != nil {
			return pubResult{}, wire.StatusIO
		}
		if n > 0 {
			return pubResult{}, wire.StatusNotEmpty
		}
	}
	s.store.Delete(pathKey(cleaned))
	s.store.Delete(subdirsKey(ino.UUID()))
	s.removeParentDirent(parent.UUID(), cleaned)
	parentPath, _ := fspath.Split(cleaned)
	return s.leases.bumpRemoved(cleaned, parentPath), wire.StatusOK
}

// removeParentDirent logs a tombstone for cleaned in its parent's subdir
// list — O(appended bytes) — and every layout.CompactEvery tombstones
// rewrites that list once half of it is garbage. Caller holds s.mu.
func (s *Server) removeParentDirent(parentUUID uuid.UUID, cleaned string) {
	_, name := fspath.Split(cleaned)
	key := subdirsKey(parentUUID)
	s.store.AppendValue(key, layout.AppendDirentTombstone(nil, name))
	s.tombs++
	if s.tombs%layout.CompactEvery != 0 {
		return
	}
	if list, ok := s.store.Get(key); ok {
		if out, live, due := layout.CompactDirentsIfDue(list); due && live == 0 {
			s.store.Delete(key)
		} else if due {
			s.store.Put(key, out)
		}
	}
}

// Chmod updates a directory's permission bits in place (no value rewrite).
func (s *Server) Chmod(path string, mode, uid, gid uint32) wire.Status {
	_, st := s.chmodPub(path, mode, uid, gid)
	return st
}

func (s *Server) chmodPub(path string, mode, uid, gid uint32) (pubResult, wire.Status) {
	return s.patchInode(path, uid, gid, func(ino layout.DirInode) ([]layout.FieldPatch, wire.Status) {
		if s.checkPerm && !acl.IsOwner(ino.UID(), uid) {
			return nil, wire.StatusPerm
		}
		newMode := layout.ModeDir | (mode & layout.PermMask)
		return layout.PatchDirMode(newMode, s.now()), wire.StatusOK
	})
}

// Chown updates a directory's owner in place.
func (s *Server) Chown(path string, newUID, newGID, uid, gid uint32) wire.Status {
	_, st := s.chownPub(path, newUID, newGID, uid, gid)
	return st
}

func (s *Server) chownPub(path string, newUID, newGID, uid, gid uint32) (pubResult, wire.Status) {
	return s.patchInode(path, uid, gid, func(ino layout.DirInode) ([]layout.FieldPatch, wire.Status) {
		if s.checkPerm && uid != 0 {
			return nil, wire.StatusPerm // only root may chown
		}
		return layout.PatchDirOwner(newUID, newGID, s.now()), wire.StatusOK
	})
}

func (s *Server) patchInode(path string, uid, gid uint32, fn func(layout.DirInode) ([]layout.FieldPatch, wire.Status)) (pubResult, wire.Status) {
	cleaned, err := fspath.Clean(path)
	if err != nil {
		return pubResult{}, wire.StatusInval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, st := s.checkAncestors(cleaned, uid, gid); st != wire.StatusOK {
		return pubResult{}, st
	}
	ino, ok := s.getInode(cleaned)
	if !ok {
		return pubResult{}, wire.StatusNotFound
	}
	patches, st := fn(ino)
	if st != wire.StatusOK {
		return pubResult{}, st
	}
	for _, p := range patches {
		if !s.store.PatchInPlace(pathKey(cleaned), p.Off, p.Data) {
			return pubResult{}, wire.StatusIO
		}
	}
	return s.leases.bumpPatched(cleaned), wire.StatusOK
}

// Rename moves a directory (and its whole subtree of directory inodes) from
// oldPath to newPath. On the tree store this is a contiguous prefix move;
// on a hash store it degenerates to a full scan (Fig 14). Files and subdir
// dirent lists are indexed by UUID and never move (§3.4.2). It returns the
// number of relocated directory inodes (including the directory itself).
func (s *Server) Rename(oldPath, newPath string, uid, gid uint32) (int, wire.Status) {
	moved, _, st := s.renamePub(oldPath, newPath, uid, gid)
	return moved, st
}

// renamePub is Rename plus the lease recalls the move published.
func (s *Server) renamePub(oldPath, newPath string, uid, gid uint32) (int, pubResult, wire.Status) {
	oldC, err := fspath.Clean(oldPath)
	if err != nil {
		return 0, pubResult{}, wire.StatusInval
	}
	newC, err := fspath.Clean(newPath)
	if err != nil {
		return 0, pubResult{}, wire.StatusInval
	}
	if oldC == "/" || newC == "/" || oldC == newC {
		return 0, pubResult{}, wire.StatusInval
	}
	if fspath.IsAncestorOf(oldC, newC) {
		return 0, pubResult{}, wire.StatusInval // cannot move a directory under itself
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	oldChain, st := s.checkAncestors(oldC, uid, gid)
	if st != wire.StatusOK {
		return 0, pubResult{}, st
	}
	newChain, st := s.checkAncestors(newC, uid, gid)
	if st != wire.StatusOK {
		return 0, pubResult{}, st
	}
	ino, ok := s.getInode(oldC)
	if !ok {
		return 0, pubResult{}, wire.StatusNotFound
	}
	if _, exists := s.getInode(newC); exists {
		return 0, pubResult{}, wire.StatusExist
	}
	oldParent := oldChain[len(oldChain)-1].Inode
	newParent := newChain[len(newChain)-1].Inode
	if s.checkPerm {
		if !acl.CanWrite(oldParent.Mode(), oldParent.UID(), oldParent.GID(), uid, gid) ||
			!acl.CanWrite(newParent.Mode(), newParent.UID(), newParent.GID(), uid, gid) {
			return 0, pubResult{}, wire.StatusPerm
		}
	}

	moved := 1
	// Move the directory's own inode.
	s.store.Delete(pathKey(oldC))
	s.store.Put(pathKey(newC), ino)
	// Move the subtree.
	oldPrefix := pathKey(oldC + "/")
	newPrefix := pathKey(newC + "/")
	if s.ordered != nil {
		moved += s.ordered.MovePrefix(oldPrefix, newPrefix)
	} else {
		moved += s.movePrefixByScan(oldPrefix, newPrefix)
	}
	// Fix parent dirent lists. The moved directory keeps its UUID, so its
	// own subdir list and every file indexed by it are untouched.
	s.removeParentDirent(oldParent.UUID(), oldC)
	_, newName := fspath.Split(newC)
	ent := layout.AppendDirent(nil, layout.Dirent{Name: newName, UUID: ino.UUID()})
	s.store.AppendValue(subdirsKey(newParent.UUID()), ent)
	return moved, s.leases.bumpRenamed(oldC, newC), wire.StatusOK
}

// movePrefixByScan is the hash-store rename path: every record in the store
// must be visited to find the subtree (the paper's Fig 14 "hash" series).
func (s *Server) movePrefixByScan(oldPrefix, newPrefix []byte) int {
	type rec struct{ k, v []byte }
	var hits []rec
	s.store.ForEach(func(k, v []byte) bool {
		if len(k) >= len(oldPrefix) && string(k[:len(oldPrefix)]) == string(oldPrefix) {
			nk := append(append([]byte(nil), newPrefix...), k[len(oldPrefix):]...)
			hits = append(hits, rec{k: nk, v: append([]byte(nil), v...)})
		}
		return true
	})
	for _, r := range hits {
		ok := append(append([]byte(nil), oldPrefix...), r.k[len(newPrefix):]...)
		s.store.Delete(ok)
	}
	for _, r := range hits {
		s.store.Put(r.k, r.v)
	}
	return len(hits)
}

// DirCount returns the number of directories (for tests and experiments).
func (s *Server) DirCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	s.store.ForEach(func(k, v []byte) bool {
		if len(k) >= 2 && string(k[:2]) == prefixPath {
			n++
		}
		return true
	})
	return n
}

// HotKeys returns the server's hot-directory sketch: the top-K paths its
// RPC handlers touch, ranked by touch count (see /debug/hot).
func (s *Server) HotKeys() *trace.TopK { return s.hot }

// LeaseSeq returns the published lease-recall sequence (see lease.go).
func (s *Server) LeaseSeq() uint64 { return s.leases.Seq() }

// StartLeaseTerm moves the lease-recall sequence into the term of a leader
// promoted under map version ver (see leaseTable.startTerm).
func (s *Server) StartLeaseTerm(ver uint64) { s.leases.startTerm(ver) }

// RecallsSuppressed returns how many mutations published no recall because
// no live lease grant covered the touched paths.
func (s *Server) RecallsSuppressed() uint64 { return s.leases.Suppressed() }

// LeaseGrants returns how many lease grants have been recorded on responses.
func (s *Server) LeaseGrants() uint64 { return s.leases.Granted() }

// Lease-coherence gauge names exported on Options.Obs's registry. The cluster
// status merge (slo.MergeCluster + Format) sums these by name, so they must
// stay stable.
const (
	MetricLeaseSeq        = "locofs_dms_lease_seq"
	MetricLeaseGrants     = "locofs_dms_lease_grants_total"
	MetricLeaseRecalls    = "locofs_dms_lease_recalls_total"
	MetricLeaseSuppressed = "locofs_dms_lease_recalls_suppressed_total"
)

// registerMetrics exports the lease table's coherence counters as gauges:
// the published recall sequence, grants recorded, recalls published (the
// sequence is bumped exactly once per published entry) and mutations whose
// recall was suppressed.
func (s *Server) registerMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc(MetricLeaseSeq, func() float64 { return float64(s.leases.Seq()) })
	reg.GaugeFunc(MetricLeaseGrants, func() float64 { return float64(s.leases.Granted()) })
	reg.GaugeFunc(MetricLeaseRecalls, func() float64 { return float64(s.leases.Seq()) })
	reg.GaugeFunc(MetricLeaseSuppressed, func() float64 { return float64(s.leases.Suppressed()) })
}

// appendPub appends a mutation response's recall trailer: the last recall
// sequence the mutation published and how many entries (0 = suppressed).
// The mutating client uses it to account for its own recalls — it already
// drops the affected entries locally — without an OpLeaseRecall fetch.
func appendPub(e *wire.Enc, pr pubResult) *wire.Enc {
	return e.U64(pr.Last).U32(pr.N)
}

// Ops lists every client-facing operation the DMS serves. The partition
// node registers a handler per op, wrapped with its range guard and
// replication (see internal/dms/partition).
var Ops = []wire.Op{
	wire.OpMkdir, wire.OpLookupDir, wire.OpLeaseRecall, wire.OpStatDir,
	wire.OpReaddirSubdirs, wire.OpRmdir, wire.OpChmodDir, wire.OpChownDir,
	wire.OpRenameDir,
}

// MutationOp reports whether op changes DMS state (and therefore must go
// through the partition's replicated op log).
func MutationOp(op wire.Op) bool {
	switch op {
	case wire.OpMkdir, wire.OpRmdir, wire.OpChmodDir, wire.OpChownDir, wire.OpRenameDir:
		return true
	}
	return false
}

// Dispatch executes one DMS operation against local state and returns the
// wire response. It is the single entry point shared by the partition
// node's read handlers and its log-apply path — a follower replaying a
// replicated op-log entry produces byte-identical state and responses by
// dispatching the entry's opcode and body here under a pinned clock.
func (s *Server) Dispatch(op wire.Op, body []byte) (wire.Status, []byte) {
	switch op {
	case wire.OpMkdir:
		d := wire.NewDec(body)
		path, mode, uid, gid := d.Str(), d.U32(), d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(path)
		u, pr, st := s.mkdirPub(path, mode, uid, gid)
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, appendPub(wire.NewEnc().UUID(u), pr).Bytes()
	case wire.OpLookupDir:
		d := wire.NewDec(body)
		path, uid, gid := d.Str(), d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(path)
		chain, g, st := s.lookupLeased(path, uid, gid)
		if st == wire.StatusNotFound && g.Valid() {
			// ENOENT with a negative-entry grant: the client may cache the
			// absence until the grant expires or a creation recalls it.
			e := wire.NewEnc()
			wire.AppendLeaseGrant(e, g)
			return st, e.Bytes()
		}
		if st != wire.StatusOK {
			return st, nil
		}
		e := wire.NewEnc().U32(uint32(len(chain)))
		for _, pi := range chain {
			e.Str(pi.Path).Blob(pi.Inode)
		}
		wire.AppendLeaseGrant(e, g)
		return wire.StatusOK, e.Bytes()
	case wire.OpLeaseRecall:
		since, err := wire.DecodeRecallReq(body)
		if err != nil {
			return wire.StatusInval, nil
		}
		cur, reset, entries := s.leases.entriesSince(since)
		return wire.StatusOK, wire.EncodeRecallResp(cur, reset, entries)
	case wire.OpStatDir:
		d := wire.NewDec(body)
		path, uid, gid := d.Str(), d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(path)
		ino, st := s.Stat(path, uid, gid)
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, wire.NewEnc().Blob(ino).Bytes()
	case wire.OpReaddirSubdirs:
		d := wire.NewDec(body)
		path, uid, gid := d.Str(), d.U32(), d.U32()
		cursor := d.Str()
		limit := d.U32()
		var skip uint32
		if d.Remaining() > 0 { // optional trailing page offset (batched paging)
			skip = d.U32()
		}
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(path)
		ents, remaining, g, st := s.readdirLeased(path, uid, gid, cursor, int(skip), int(limit))
		if st != wire.StatusOK {
			return st, nil
		}
		e := wire.NewEnc().U32(uint32(len(ents))).Bool(remaining > 0)
		for _, ent := range ents {
			e.Str(ent.Name).UUID(ent.UUID)
		}
		// Trailing exact remaining count (newer clients size prefetch
		// batches from it; older ones ignore it).
		e.U32(uint32(remaining))
		// Trailing listing lease grant, present only when this response is
		// the complete listing (first page, nothing remaining).
		if g.Valid() {
			wire.AppendLeaseGrant(e, g)
		}
		return wire.StatusOK, e.Bytes()
	case wire.OpRmdir:
		d := wire.NewDec(body)
		path, uid, gid := d.Str(), d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(path)
		pr, st := s.rmdirPub(path, uid, gid)
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, appendPub(wire.NewEnc(), pr).Bytes()
	case wire.OpChmodDir:
		d := wire.NewDec(body)
		path, mode, uid, gid := d.Str(), d.U32(), d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(path)
		pr, st := s.chmodPub(path, mode, uid, gid)
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, appendPub(wire.NewEnc(), pr).Bytes()
	case wire.OpChownDir:
		d := wire.NewDec(body)
		path, newUID, newGID, uid, gid := d.Str(), d.U32(), d.U32(), d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(path)
		pr, st := s.chownPub(path, newUID, newGID, uid, gid)
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, appendPub(wire.NewEnc(), pr).Bytes()
	case wire.OpRenameDir:
		d := wire.NewDec(body)
		oldPath, newPath, uid, gid := d.Str(), d.Str(), d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(oldPath)
		moved, pr, st := s.renamePub(oldPath, newPath, uid, gid)
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, appendPub(wire.NewEnc().U64(uint64(moved)), pr).Bytes()
	}
	return wire.StatusInval, nil
}
