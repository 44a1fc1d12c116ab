package fms

// Online membership-change support: the three server-side primitives the
// migration coordinator drives when an FMS joins or leaves the ring.
//
//   - ExportMoved scans this server's files and returns those a candidate
//     ring places on a different server — the ~1/n slice a membership
//     change relocates (§3.1).
//   - MigrateInstall imports one exported file at its new owner, with
//     overwrite semantics (a retried install, or a re-export after a
//     concurrent mutation at the source, must converge) and the dirent
//     fix-up: the per-(directory, FMS) dirent concatenation gains the
//     entry only when the file is new to this server, so replays do not
//     duplicate listings.
//   - MigrateDelete retires the source copy only if its bytes still equal
//     the export — a file mutated at the source after the export survives
//     and is re-exported by the coordinator's next scan pass, so the
//     mutation is never lost.

import (
	"bytes"

	"locofs/internal/chash"
	"locofs/internal/layout"
	"locofs/internal/obs"
	"locofs/internal/rpc"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// MovedFile is one file due to relocate: its placement key plus both
// metadata parts, normalized regardless of coupled/decoupled mode.
type MovedFile struct {
	Dir  uuid.UUID
	Name string
	Meta *FileMeta
}

// parseFileKey splits a prefixed store key into (dir, name).
func parseFileKey(k []byte) (uuid.UUID, string, bool) {
	if len(k) < 2+uuid.Size {
		return uuid.Nil, "", false
	}
	return uuid.MustFromBytes(k[2 : 2+uuid.Size]), string(k[2+uuid.Size:]), true
}

// ExportMoved returns up to limit files whose owner under next is not self
// (limit <= 0 means no bound), this server's total file count, and whether
// the limit cut the listing short. The scan collects keys under the read
// lock first and fetches metadata after, so it never nests store reads
// inside the store's own iteration.
func (s *Server) ExportMoved(next *chash.Ring, self, limit int) (moved []MovedFile, total int, more bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pfx := prefixAccess
	if s.coupled {
		pfx = prefixCoupled
	}
	type fileKey struct {
		dir  uuid.UUID
		name string
	}
	var keys []fileKey
	s.store.ForEach(func(k, v []byte) bool {
		if len(k) < 2 || string(k[:2]) != pfx {
			return true
		}
		dir, name, ok := parseFileKey(k)
		if !ok {
			return true
		}
		total++
		if next.Locate(FileKey(dir, name)) == self {
			return true
		}
		if limit > 0 && len(keys) >= limit {
			more = true
			return true // keep counting total
		}
		keys = append(keys, fileKey{dir, name})
		return true
	})
	moved = make([]MovedFile, 0, len(keys))
	for _, k := range keys {
		m, st := s.getMeta(k.dir, k.name)
		if st != wire.StatusOK {
			continue
		}
		moved = append(moved, MovedFile{Dir: k.dir, Name: k.name, Meta: m})
	}
	if len(moved) > 0 {
		s.obs.Emit(obs.KindMigration, "export", 0, int64(len(moved)), "")
	}
	return moved, total, more
}

// MigrateInstall imports one file at its new owner. Unlike CreateWithMeta
// it overwrites an existing copy (retries and post-mutation re-exports
// must converge on the latest export) and appends the dirent only when the
// file was absent, keeping the directory's concatenated entry list
// duplicate-free across replays.
func (s *Server) MigrateInstall(dir uuid.UUID, name string, meta *FileMeta) wire.Status {
	if name == "" || dir.IsNil() || !meta.Access.Valid() || !meta.Content.Valid() {
		return wire.StatusInval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	existed := s.exists(dir, name)
	if s.coupled {
		s.store.Put(coupledKey(dir, name), layout.JoinParts(meta.Access, meta.Content).Encode())
	} else {
		s.store.Put(accessKey(dir, name), meta.Access)
		s.store.Put(contentKey(dir, name), meta.Content)
	}
	if !existed {
		ent := layout.AppendDirent(nil, layout.Dirent{Name: name, UUID: meta.UUID()})
		s.store.AppendValue(direntsKey(dir), ent)
	}
	return wire.StatusOK
}

// MigrateDelete retires the source copy of a migrated file, but only if
// its stored bytes still equal the exported parts: a file mutated since
// the export is left in place (deleted=false) for the coordinator's next
// scan pass to re-export, so no update is lost to the migration race. A
// missing file reports deleted=false with StatusOK — the delete already
// happened (retry convergence).
func (s *Server) MigrateDelete(dir uuid.UUID, name string, access layout.FileAccess, content layout.FileContent) (deleted bool, st wire.Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, got := s.getMeta(dir, name)
	if got != wire.StatusOK {
		return false, wire.StatusOK
	}
	if !bytes.Equal(m.Access, access) || !bytes.Equal(m.Content, content) {
		return false, wire.StatusOK
	}
	if s.coupled {
		s.store.Delete(coupledKey(dir, name))
	} else {
		s.store.Delete(accessKey(dir, name))
		s.store.Delete(contentKey(dir, name))
	}
	s.removeDirent(dir, name)
	return true, wire.StatusOK
}

// attachMigration registers the migration handlers. Request layouts:
//
//	MigrateScan:    self i64, n u32, n×(id i64), limit u32
//	MigrateInstall: dir uuid, name str, access blob, content blob
//	MigrateDelete:  dir uuid, name str, access blob, content blob
//
// Install and delete arrive as pipelined groups in practice — the
// coordinator sends one request per file and flushes them in one write.
func (s *Server) attachMigration(rs *rpc.Server) {
	rs.Handle(wire.OpMigrateScan, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		self := int(d.I64())
		n := d.Count(8) // one i64 per ring ID
		ids := make([]int, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			ids = append(ids, int(d.I64()))
		}
		limit := int(d.U32())
		if d.Err() != nil || len(ids) == 0 {
			return wire.StatusInval, nil
		}
		next := chash.NewRing(0, ids...)
		moved, total, more := s.ExportMoved(next, self, limit)
		e := wire.NewEnc().U32(uint32(total)).U32(uint32(len(moved)))
		for _, f := range moved {
			e.UUID(f.Dir).Str(f.Name).Blob(f.Meta.Access).Blob(f.Meta.Content)
		}
		e.Bool(more)
		return wire.StatusOK, e.Bytes()
	})
	rs.Handle(wire.OpMigrateInstall, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		access, content := d.Blob(), d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		meta := &FileMeta{Access: layout.FileAccess(access), Content: layout.FileContent(content)}
		return s.MigrateInstall(dir, name, meta), nil
	})
	rs.Handle(wire.OpMigrateDelete, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		dir, name := d.UUID(), d.Str()
		access, content := d.Blob(), d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		deleted, st := s.MigrateDelete(dir, name, layout.FileAccess(access), layout.FileContent(content))
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, wire.NewEnc().Bool(deleted).Bytes()
	})
}
