// Package fms implements the LocoFS File Metadata Server.
//
// Each FMS owns the file inodes that the consistent-hash ring assigns to it,
// keyed by directory_uuid + file_name (§3.1). In the default *decoupled*
// mode (§3.3), a file's metadata is two small fixed-length values — the
// access part and the content part — and single-field updates are in-place
// byte patches with no (de)serialization. The *coupled* mode (the LocoFS-CF
// ablation of Fig 11 and the organization of IndexFS-style systems) stores
// one variable-length value per file, including a forward block index, and
// every update is a full get → decode → modify → encode → put cycle.
//
// The dirents of all files of one directory that land on this server are
// concatenated into a single value keyed by the directory UUID (§3.2.1).
package fms

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/acl"
	"locofs/internal/kv"
	"locofs/internal/layout"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/trace"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// Key prefixes inside the FMS store.
const (
	prefixAccess  = "A:" // decoupled access part
	prefixContent = "C:" // decoupled content part
	prefixCoupled = "I:" // coupled whole-inode value
	prefixDirents = "D:" // per-directory file dirent list
)

// DefaultBlockSize is the object-store block size stamped into new files.
const DefaultBlockSize = 4096

// Options configures an FMS.
type Options struct {
	// Store is the backing KV store. Default: a fresh kv.HashStore.
	Store kv.Store
	// ServerID stamps generated file UUIDs and must be unique per FMS.
	ServerID uint32
	// Coupled selects the coupled-inode (LocoFS-CF) organization.
	Coupled bool
	// CheckPermissions enables ACL enforcement on file operations.
	CheckPermissions bool
	// BlockSize for new files; default DefaultBlockSize.
	BlockSize uint32
	// Now supplies timestamps; defaults to time.Now().UnixNano.
	Now func() int64
	// Obs (nil = off) receives flight-recorder events — one KindMigration
	// per non-empty ExportMoved batch (the source side of a drain), one
	// dedup_replay per retried mutation answered from the window — and
	// exports the window's hit and in-flight-skip counts.
	Obs *obs.Handle
}

// FileMeta is the decoded metadata of one file, returned by Getattr.
type FileMeta struct {
	Access  layout.FileAccess
	Content layout.FileContent
}

// UUID returns the file's UUID.
func (m *FileMeta) UUID() uuid.UUID { return m.Content.UUID() }

// Server is one file metadata server.
type Server struct {
	mu        sync.RWMutex
	store     kv.Store
	gen       *uuid.Generator
	coupled   bool
	checkPerm bool
	blockSize uint32
	now       func() int64
	tombs     atomic.Uint64 // dirent tombstones since start, for compaction

	// hot ranks this server's most-touched file keys (dir-uuid/name for
	// per-file ops, bare dir-uuid for directory-wide ops). Always on;
	// served by the admin plane's /debug/hot.
	hot *trace.TopK

	// window answers retried non-idempotent requests (see atMostOnce).
	window dedupWindow

	obs *obs.Handle // see Options.Obs
}

// New returns an FMS.
func New(opts Options) *Server {
	st := opts.Store
	if st == nil {
		st = kv.NewHashStore()
	}
	s := &Server{
		store:     st,
		gen:       uuid.NewGenerator(opts.ServerID),
		coupled:   opts.Coupled,
		checkPerm: opts.CheckPermissions,
		blockSize: opts.BlockSize,
		now:       opts.Now,
		hot:       trace.NewTopK(trace.DefaultTopKCapacity),
		obs:       opts.Obs,
	}
	if s.blockSize == 0 {
		s.blockSize = DefaultBlockSize
	}
	if s.now == nil {
		s.now = func() int64 { return time.Now().UnixNano() }
	}
	if reg := s.obs.Registry(); reg != nil {
		reg.GaugeFunc(MetricDedupInflightSkips, func() float64 {
			return float64(s.window.inflightSkips.Load())
		})
	}
	s.restoreGenerator()
	return s
}

// restoreGenerator advances the UUID sequence past every file identifier
// already in the store (after a restart on persistent state).
func (s *Server) restoreGenerator() {
	sid := s.gen.SID()
	var maxFid uint64
	s.store.ForEach(func(k, v []byte) bool {
		if len(k) < 2 {
			return true
		}
		var u uuid.UUID
		switch string(k[:2]) {
		case prefixContent:
			if len(v) != layout.FileContentSize {
				return true
			}
			u = layout.FileContent(v).UUID()
		case prefixCoupled:
			ci, err := layout.DecodeCoupledInode(v)
			if err != nil {
				return true
			}
			u = ci.UUID
		default:
			return true
		}
		if u.SID() == sid && u.FID() > maxFid {
			maxFid = u.FID()
		}
		return true
	})
	if maxFid > 0 {
		s.gen.Restore(maxFid)
	}
}

// Coupled reports whether the server runs in coupled-inode mode.
func (s *Server) Coupled() bool { return s.coupled }

// FileKey is the paper's placement key: directory_uuid + file_name. The
// same bytes feed the consistent-hash ring and, prefixed, the local store.
func FileKey(dir uuid.UUID, name string) []byte {
	k := make([]byte, 0, uuid.Size+len(name))
	k = append(k, dir[:]...)
	return append(k, name...)
}

func accessKey(dir uuid.UUID, name string) []byte {
	return append([]byte(prefixAccess), FileKey(dir, name)...)
}

func contentKey(dir uuid.UUID, name string) []byte {
	return append([]byte(prefixContent), FileKey(dir, name)...)
}

func coupledKey(dir uuid.UUID, name string) []byte {
	return append([]byte(prefixCoupled), FileKey(dir, name)...)
}

func direntsKey(dir uuid.UUID) []byte {
	return append([]byte(prefixDirents), dir[:]...)
}

// exists reports whether the file is present. Caller holds s.mu.
func (s *Server) exists(dir uuid.UUID, name string) bool {
	if s.coupled {
		_, ok := s.store.Get(coupledKey(dir, name))
		return ok
	}
	_, ok := s.store.Get(accessKey(dir, name))
	return ok
}

// Create makes a new file in directory dir and returns its UUID.
func (s *Server) Create(dir uuid.UUID, name string, mode, uid, gid uint32) (uuid.UUID, wire.Status) {
	if name == "" || dir.IsNil() {
		return uuid.Nil, wire.StatusInval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exists(dir, name) {
		return uuid.Nil, wire.StatusExist
	}
	u := s.gen.Next()
	now := s.now()
	if s.coupled {
		ci := &layout.CoupledInode{
			CTime: now, MTime: now, ATime: now,
			Mode: layout.ModeFile | (mode & layout.PermMask),
			UID:  uid, GID: gid,
			BlockSize: s.blockSize, UUID: u,
		}
		s.store.Put(coupledKey(dir, name), ci.Encode())
	} else {
		a := layout.NewFileAccess()
		a.SetCTime(now)
		a.SetMode(layout.ModeFile | (mode & layout.PermMask))
		a.SetUID(uid)
		a.SetGID(gid)
		c := layout.NewFileContent(s.blockSize)
		c.SetMTime(now)
		c.SetATime(now)
		c.SetUUID(u)
		s.store.Put(accessKey(dir, name), a)
		s.store.Put(contentKey(dir, name), c)
	}
	ent := layout.AppendDirent(nil, layout.Dirent{Name: name, UUID: u})
	s.store.AppendValue(direntsKey(dir), ent)
	return u, wire.StatusOK
}

// CreateWithMeta installs a file with pre-existing metadata (used to
// relocate a file during f-rename).
func (s *Server) CreateWithMeta(dir uuid.UUID, name string, meta *FileMeta) wire.Status {
	if name == "" || dir.IsNil() || !meta.Access.Valid() || !meta.Content.Valid() {
		return wire.StatusInval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exists(dir, name) {
		return wire.StatusExist
	}
	if s.coupled {
		s.store.Put(coupledKey(dir, name), layout.JoinParts(meta.Access, meta.Content).Encode())
	} else {
		s.store.Put(accessKey(dir, name), meta.Access)
		s.store.Put(contentKey(dir, name), meta.Content)
	}
	ent := layout.AppendDirent(nil, layout.Dirent{Name: name, UUID: meta.UUID()})
	s.store.AppendValue(direntsKey(dir), ent)
	return wire.StatusOK
}

// getMeta loads both parts. Caller holds a read lock (or the write lock).
func (s *Server) getMeta(dir uuid.UUID, name string) (*FileMeta, wire.Status) {
	if s.coupled {
		v, ok := s.store.Get(coupledKey(dir, name))
		if !ok {
			return nil, wire.StatusNotFound
		}
		ci, err := layout.DecodeCoupledInode(v)
		if err != nil {
			return nil, wire.StatusIO
		}
		a, c := layout.SplitCoupled(ci)
		return &FileMeta{Access: a, Content: c}, wire.StatusOK
	}
	av, ok := s.store.Get(accessKey(dir, name))
	if !ok || len(av) != layout.FileAccessSize {
		return nil, wire.StatusNotFound
	}
	cv, ok := s.store.Get(contentKey(dir, name))
	if !ok || len(cv) != layout.FileContentSize {
		return nil, wire.StatusIO
	}
	return &FileMeta{Access: layout.FileAccess(av), Content: layout.FileContent(cv)}, wire.StatusOK
}

// Getattr returns both metadata parts (the stat footprint of Table 1).
func (s *Server) Getattr(dir uuid.UUID, name string) (*FileMeta, wire.Status) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.getMeta(dir, name)
}

// Open checks permission against the access part and returns the metadata.
// Per Table 1 only the access part is strictly required; the content part
// rides along so the client can address data blocks.
func (s *Server) Open(dir uuid.UUID, name string, uid, gid uint32, write bool) (*FileMeta, wire.Status) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, st := s.getMeta(dir, name)
	if st != wire.StatusOK {
		return nil, st
	}
	if s.checkPerm {
		a := m.Access
		allowed := acl.CanRead(a.Mode(), a.UID(), a.GID(), uid, gid)
		if write {
			allowed = acl.CanWrite(a.Mode(), a.UID(), a.GID(), uid, gid)
		}
		if !allowed {
			return nil, wire.StatusPerm
		}
	}
	return m, wire.StatusOK
}

// Access performs the access(2) check: it reads only the access part.
func (s *Server) Access(dir uuid.UUID, name string, uid, gid uint32, wantWrite bool) wire.Status {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.coupled {
		m, st := s.getMeta(dir, name)
		if st != wire.StatusOK {
			return st
		}
		return s.aclStatus(m.Access, uid, gid, wantWrite)
	}
	av, ok := s.store.Get(accessKey(dir, name))
	if !ok {
		return wire.StatusNotFound
	}
	return s.aclStatus(layout.FileAccess(av), uid, gid, wantWrite)
}

func (s *Server) aclStatus(a layout.FileAccess, uid, gid uint32, wantWrite bool) wire.Status {
	if !s.checkPerm {
		return wire.StatusOK
	}
	ok := acl.CanRead(a.Mode(), a.UID(), a.GID(), uid, gid)
	if wantWrite {
		ok = acl.CanWrite(a.Mode(), a.UID(), a.GID(), uid, gid)
	}
	if !ok {
		return wire.StatusPerm
	}
	return wire.StatusOK
}

// Remove deletes the file and returns the content part it held: its UUID,
// size and block size tell the caller which object-store blocks to reclaim
// (none for an empty file), at no KV cost beyond the read the delete needs.
func (s *Server) Remove(dir uuid.UUID, name string, uid, gid uint32) (layout.FileContent, wire.Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, st := s.getMeta(dir, name)
	if st != wire.StatusOK {
		return nil, st
	}
	if s.coupled {
		s.store.Delete(coupledKey(dir, name))
	} else {
		s.store.Delete(accessKey(dir, name))
		s.store.Delete(contentKey(dir, name))
	}
	s.removeDirent(dir, name)
	return m.Content, wire.StatusOK
}

// removeDirent logs a tombstone for name — O(appended bytes), independent
// of directory width. Every layout.CompactEvery removals server-wide the
// list just appended to is checked and, once half of it is garbage,
// rewritten.
func (s *Server) removeDirent(dir uuid.UUID, name string) {
	key := direntsKey(dir)
	s.store.AppendValue(key, layout.AppendDirentTombstone(nil, name))
	if s.tombs.Add(1)%layout.CompactEvery != 0 {
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

// Chmod updates mode and ctime. Decoupled: a 12-byte in-place patch of the
// access part. Coupled: full value read-modify-write.
func (s *Server) Chmod(dir uuid.UUID, name string, mode, uid uint32) wire.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coupled {
		return s.rmwCoupled(dir, name, func(ci *layout.CoupledInode) wire.Status {
			if s.checkPerm && !acl.IsOwner(ci.UID, uid) {
				return wire.StatusPerm
			}
			ci.Mode = layout.ModeFile | (mode & layout.PermMask)
			ci.CTime = s.now()
			return wire.StatusOK
		})
	}
	key := accessKey(dir, name)
	if s.checkPerm {
		av, ok := s.store.Get(key)
		if !ok {
			return wire.StatusNotFound
		}
		if !acl.IsOwner(layout.FileAccess(av).UID(), uid) {
			return wire.StatusPerm
		}
	}
	newMode := layout.ModeFile | (mode & layout.PermMask)
	for _, p := range layout.PatchAccessMode(newMode, s.now()) {
		if !s.store.PatchInPlace(key, p.Off, p.Data) {
			return wire.StatusNotFound
		}
	}
	return wire.StatusOK
}

// Chown updates owner fields (root only when permission checks are on).
func (s *Server) Chown(dir uuid.UUID, name string, newUID, newGID, uid uint32) wire.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.checkPerm && uid != 0 {
		return wire.StatusPerm
	}
	if s.coupled {
		return s.rmwCoupled(dir, name, func(ci *layout.CoupledInode) wire.Status {
			ci.UID, ci.GID, ci.CTime = newUID, newGID, s.now()
			return wire.StatusOK
		})
	}
	key := accessKey(dir, name)
	for _, p := range layout.PatchAccessOwner(newUID, newGID, s.now()) {
		if !s.store.PatchInPlace(key, p.Off, p.Data) {
			return wire.StatusNotFound
		}
	}
	return wire.StatusOK
}

// Utimens updates atime and mtime (content part only).
func (s *Server) Utimens(dir uuid.UUID, name string, atime, mtime int64) wire.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coupled {
		return s.rmwCoupled(dir, name, func(ci *layout.CoupledInode) wire.Status {
			ci.ATime, ci.MTime = atime, mtime
			return wire.StatusOK
		})
	}
	key := contentKey(dir, name)
	for _, p := range layout.PatchContentTimes(atime, mtime) {
		if !s.store.PatchInPlace(key, p.Off, p.Data) {
			return wire.StatusNotFound
		}
	}
	return wire.StatusOK
}

// Truncate sets the file size, returning the file UUID, previous size, and
// block size so the caller can trim object-store blocks.
func (s *Server) Truncate(dir uuid.UUID, name string, size uint64) (uuid.UUID, uint64, uint32, wire.Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coupled {
		var u uuid.UUID
		var old uint64
		var bs uint32
		st := s.rmwCoupled(dir, name, func(ci *layout.CoupledInode) wire.Status {
			u, old, bs = ci.UUID, ci.Size, ci.BlockSize
			ci.Size = size
			ci.MTime = s.now()
			ci.Blocks = resizeBlockIndex(ci.Blocks, size, ci.BlockSize)
			return wire.StatusOK
		})
		return u, old, bs, st
	}
	// Decoupled truncate touches only the content part (Table 1).
	key := contentKey(dir, name)
	cv, ok := s.store.Get(key)
	if !ok || len(cv) != layout.FileContentSize {
		return uuid.Nil, 0, 0, wire.StatusNotFound
	}
	content := layout.FileContent(cv)
	old := content.Size()
	for _, p := range layout.PatchContentSize(size, s.now()) {
		if !s.store.PatchInPlace(key, p.Off, p.Data) {
			return uuid.Nil, 0, 0, wire.StatusIO
		}
	}
	return content.UUID(), old, content.BlockSize(), wire.StatusOK
}

// UpdateSize extends the file size after a data write (size only grows; a
// concurrent larger write wins). Decoupled cost: one 8-byte in-place read
// plus a 16-byte patch.
func (s *Server) UpdateSize(dir uuid.UUID, name string, size uint64) wire.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coupled {
		return s.rmwCoupled(dir, name, func(ci *layout.CoupledInode) wire.Status {
			if size > ci.Size {
				ci.Size = size
				ci.Blocks = resizeBlockIndex(ci.Blocks, size, ci.BlockSize)
			}
			ci.MTime = s.now()
			return wire.StatusOK
		})
	}
	key := contentKey(dir, name)
	var cur [8]byte
	if !s.store.ReadAt(key, layout.OffContentSize, cur[:]) {
		return wire.StatusNotFound
	}
	curSize := binary.LittleEndian.Uint64(cur[:])
	newSize := curSize
	if size > curSize {
		newSize = size
	}
	for _, p := range layout.PatchContentSize(newSize, s.now()) {
		if !s.store.PatchInPlace(key, p.Off, p.Data) {
			return wire.StatusIO
		}
	}
	return wire.StatusOK
}

// resizeBlockIndex grows/shrinks the coupled inode's forward block index to
// cover size bytes (capped to bound memory; the cap loses no information
// the decoupled design needs, since block addresses are uuid+blk_num).
func resizeBlockIndex(blocks []uint64, size uint64, bsize uint32) []uint64 {
	if bsize == 0 {
		return blocks
	}
	want := int((size + uint64(bsize) - 1) / uint64(bsize))
	const maxIndex = 4096
	if want > maxIndex {
		want = maxIndex
	}
	for len(blocks) < want {
		blocks = append(blocks, uint64(len(blocks)))
	}
	return blocks[:want]
}

// rmwCoupled is the coupled-mode read-modify-write cycle every mutation
// pays: get, decode, mutate, encode, put. Caller holds s.mu.
func (s *Server) rmwCoupled(dir uuid.UUID, name string, fn func(*layout.CoupledInode) wire.Status) wire.Status {
	key := coupledKey(dir, name)
	v, ok := s.store.Get(key)
	if !ok {
		return wire.StatusNotFound
	}
	ci, err := layout.DecodeCoupledInode(v)
	if err != nil {
		return wire.StatusIO
	}
	if st := fn(ci); st != wire.StatusOK {
		return st
	}
	s.store.Put(key, ci.Encode())
	return wire.StatusOK
}

// ReaddirFiles returns one page of dir's file entries stored on this
// server, in name order, strictly after cursor (empty = from the start).
// The client unions pages from every FMS. more reports remaining entries.
func (s *Server) ReaddirFiles(dir uuid.UUID, cursor string, limit int) (ents []layout.Dirent, more bool, st wire.Status) {
	ents, remaining, st := s.ReaddirFilesAt(dir, cursor, 0, limit)
	return ents, remaining > 0, st
}

// ReaddirFilesAt is ReaddirFiles with a page offset: it returns the skip-th
// page after cursor, letting a client prefetch several consecutive pages of
// one listing in a single batched round trip. remaining is the exact entry
// count beyond the returned page.
func (s *Server) ReaddirFilesAt(dir uuid.UUID, cursor string, skip, limit int) (ents []layout.Dirent, remaining int, st wire.Status) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	list, _ := s.store.Get(direntsKey(dir))
	ents, remaining, err := layout.DirentPageAt(list, cursor, skip, limit)
	if err != nil {
		return nil, 0, wire.StatusIO
	}
	return ents, remaining, wire.StatusOK
}

// DirHasFiles reports whether this server holds any file of dir — the
// per-server emptiness probe rmdir fans out (§4.2.1 observation 3).
func (s *Server) DirHasFiles(dir uuid.UUID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	list, ok := s.store.Get(direntsKey(dir))
	if !ok {
		return false
	}
	n, err := layout.CountDirents(list)
	return err == nil && n > 0
}

// FileCount returns the number of files on this server (tests/experiments).
func (s *Server) FileCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pfx := prefixAccess
	if s.coupled {
		pfx = prefixCoupled
	}
	n := 0
	s.store.ForEach(func(k, v []byte) bool {
		if len(k) >= 2 && string(k[:2]) == pfx {
			n++
		}
		return true
	})
	return n
}

// HotKeys returns the server's hot-key sketch: the top-K dir-uuid/name (or
// bare dir-uuid) keys its RPC handlers touch, ranked by touch count.
func (s *Server) HotKeys() *trace.TopK { return s.hot }

// touchFile feeds one per-file operation's placement key into the sketch.
func (s *Server) touchFile(dir uuid.UUID, name string) {
	s.hot.Touch(dir.String() + "/" + name)
}

// Attach registers the FMS request handlers on an rpc.Server. Per-file
// handlers feed the file's placement key (dir-uuid/name) into the hot-key
// sketch; directory-wide handlers feed the bare dir-uuid.
func (s *Server) Attach(rs *rpc.Server) {
	rs.HandleMsg(wire.OpCreateFile, func(req, trace uint64, body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		mode, uid, gid := d.U32(), d.U32(), d.U32()
		var meta *FileMeta
		if d.Bool() {
			meta = &FileMeta{Access: layout.FileAccess(d.Blob()), Content: layout.FileContent(d.Blob())}
		}
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		// Ownership guard: when the installed cluster map names an FMS set
		// and its ring places this key elsewhere, refuse the create with
		// ESTALE so a client on an old map refreshes and retries at the
		// right owner instead of stranding the file here. Static topologies
		// (no map, or one naming no FMS set) skip the check.
		if owns, known := rs.OwnsKey(FileKey(dir, name)); known && !owns {
			return wire.StatusStale, nil
		}
		return s.atMostOnce(wire.OpCreateFile, req, trace, func() (wire.Status, []byte) {
			if meta != nil {
				return s.CreateWithMeta(dir, name, meta), nil
			}
			u, st := s.Create(dir, name, mode, uid, gid)
			if st != wire.StatusOK {
				return st, nil
			}
			return wire.StatusOK, wire.NewEnc().UUID(u).Bytes()
		})
	})
	rs.Handle(wire.OpStatFile, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		m, st := s.Getattr(dir, name)
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, wire.NewEnc().Blob(m.Access).Blob(m.Content).Bytes()
	})
	rs.Handle(wire.OpOpenFile, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		uid, gid, write := d.U32(), d.U32(), d.Bool()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		m, st := s.Open(dir, name, uid, gid, write)
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, wire.NewEnc().Blob(m.Access).Blob(m.Content).Bytes()
	})
	rs.Handle(wire.OpAccessFile, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		uid, gid, write := d.U32(), d.U32(), d.Bool()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		return s.Access(dir, name, uid, gid, write), nil
	})
	rs.HandleMsg(wire.OpRemoveFile, func(req, trace uint64, body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		uid, gid := d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		return s.atMostOnce(wire.OpRemoveFile, req, trace, func() (wire.Status, []byte) {
			c, st := s.Remove(dir, name, uid, gid)
			if st != wire.StatusOK {
				return st, nil
			}
			return wire.StatusOK, wire.NewEnc().UUID(c.UUID()).U64(c.Size()).U32(c.BlockSize()).Bytes()
		})
	})
	rs.Handle(wire.OpChmodFile, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		mode, uid := d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		return s.Chmod(dir, name, mode, uid), nil
	})
	rs.Handle(wire.OpChownFile, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		newUID, newGID, uid := d.U32(), d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		return s.Chown(dir, name, newUID, newGID, uid), nil
	})
	rs.Handle(wire.OpUtimensFile, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		atime, mtime := d.I64(), d.I64()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		return s.Utimens(dir, name, atime, mtime), nil
	})
	rs.HandleMsg(wire.OpTruncateFile, func(req, trace uint64, body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		size := d.U64()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		return s.atMostOnce(wire.OpTruncateFile, req, trace, func() (wire.Status, []byte) {
			u, old, bs, st := s.Truncate(dir, name, size)
			if st != wire.StatusOK {
				return st, nil
			}
			return wire.StatusOK, wire.NewEnc().UUID(u).U64(old).U32(bs).Bytes()
		})
	})
	rs.Handle(wire.OpUpdateSize, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		size := d.U64()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.touchFile(dir, name)
		return s.UpdateSize(dir, name, size), nil
	})
	rs.Handle(wire.OpReaddirFiles, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir := d.UUID()
		cursor := d.Str()
		limit := d.U32()
		var skip uint32
		if d.Remaining() > 0 { // optional trailing page offset (batched paging)
			skip = d.U32()
		}
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(dir.String())
		ents, remaining, st := s.ReaddirFilesAt(dir, cursor, int(skip), int(limit))
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
		return wire.StatusOK, e.Bytes()
	})
	rs.Handle(wire.OpDirHasFiles, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir := d.UUID()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.hot.Touch(dir.String())
		return wire.StatusOK, wire.NewEnc().Bool(s.DirHasFiles(dir)).Bytes()
	})
	s.attachMigration(rs)
}
