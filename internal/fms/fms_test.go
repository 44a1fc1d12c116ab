package fms

import (
	"fmt"
	"testing"

	"locofs/internal/kv"
	"locofs/internal/layout"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

var dirA = uuid.New(0, 100)
var dirB = uuid.New(0, 200)

func both(t *testing.T, fn func(t *testing.T, s *Server)) {
	t.Helper()
	for _, coupled := range []bool{false, true} {
		name := "decoupled"
		if coupled {
			name = "coupled"
		}
		t.Run(name, func(t *testing.T) {
			var tick int64
			s := New(Options{
				ServerID: 1,
				Coupled:  coupled,
				Now:      func() int64 { tick++; return tick },
			})
			fn(t, s)
		})
	}
}

func TestCreateGetattr(t *testing.T) {
	both(t, func(t *testing.T, s *Server) {
		u, st := s.Create(dirA, "f", 0o640, 10, 20)
		if st != wire.StatusOK || u.IsNil() {
			t.Fatalf("Create = %v, %v", u, st)
		}
		m, st := s.Getattr(dirA, "f")
		if st != wire.StatusOK {
			t.Fatal(st)
		}
		if m.Access.Mode()&layout.PermMask != 0o640 || m.Access.UID() != 10 || m.Access.GID() != 20 {
			t.Errorf("access = mode %o uid %d gid %d", m.Access.Mode(), m.Access.UID(), m.Access.GID())
		}
		if m.UUID() != u {
			t.Errorf("uuid mismatch: %v vs %v", m.UUID(), u)
		}
		if m.Content.Size() != 0 || m.Content.BlockSize() != DefaultBlockSize {
			t.Errorf("content = size %d bsize %d", m.Content.Size(), m.Content.BlockSize())
		}
	})
}

func TestCreateStatuses(t *testing.T) {
	both(t, func(t *testing.T, s *Server) {
		s.Create(dirA, "f", 0o644, 1, 1)
		if _, st := s.Create(dirA, "f", 0o644, 1, 1); st != wire.StatusExist {
			t.Errorf("dup create = %v", st)
		}
		if _, st := s.Create(dirA, "", 0o644, 1, 1); st != wire.StatusInval {
			t.Errorf("empty name = %v", st)
		}
		if _, st := s.Create(uuid.Nil, "g", 0o644, 1, 1); st != wire.StatusInval {
			t.Errorf("nil dir = %v", st)
		}
		if _, st := s.Getattr(dirA, "missing"); st != wire.StatusNotFound {
			t.Errorf("stat missing = %v", st)
		}
		// Same name in a different directory is a different file.
		if _, st := s.Create(dirB, "f", 0o644, 1, 1); st != wire.StatusOK {
			t.Errorf("same name, other dir = %v", st)
		}
	})
}

func TestChmodPatchesAccessOnly(t *testing.T) {
	both(t, func(t *testing.T, s *Server) {
		s.Create(dirA, "f", 0o644, 1, 1)
		before, _ := s.Getattr(dirA, "f")
		if st := s.Chmod(dirA, "f", 0o600, 1); st != wire.StatusOK {
			t.Fatal(st)
		}
		after, _ := s.Getattr(dirA, "f")
		if after.Access.Mode()&layout.PermMask != 0o600 {
			t.Errorf("mode = %o", after.Access.Mode())
		}
		if after.Access.Mode()&layout.ModeFile == 0 {
			t.Error("chmod dropped file type bit")
		}
		if after.Access.CTime() == before.Access.CTime() {
			t.Error("chmod did not bump ctime")
		}
		if after.Content.MTime() != before.Content.MTime() {
			t.Error("chmod touched the content part")
		}
		if st := s.Chmod(dirA, "missing", 0o600, 1); st != wire.StatusNotFound {
			t.Errorf("chmod missing = %v", st)
		}
	})
}

func TestChmodPermission(t *testing.T) {
	var tick int64
	s := New(Options{ServerID: 1, CheckPermissions: true, Now: func() int64 { tick++; return tick }})
	s.Create(dirA, "f", 0o644, 10, 10)
	if st := s.Chmod(dirA, "f", 0o600, 20); st != wire.StatusPerm {
		t.Errorf("chmod by non-owner = %v", st)
	}
	if st := s.Chmod(dirA, "f", 0o600, 0); st != wire.StatusOK {
		t.Errorf("chmod by root = %v", st)
	}
}

func TestChownUtimens(t *testing.T) {
	both(t, func(t *testing.T, s *Server) {
		s.Create(dirA, "f", 0o644, 1, 1)
		if st := s.Chown(dirA, "f", 7, 8, 0); st != wire.StatusOK {
			t.Fatal(st)
		}
		if st := s.Utimens(dirA, "f", 100, 200); st != wire.StatusOK {
			t.Fatal(st)
		}
		m, _ := s.Getattr(dirA, "f")
		if m.Access.UID() != 7 || m.Access.GID() != 8 {
			t.Errorf("owner = %d/%d", m.Access.UID(), m.Access.GID())
		}
		if m.Content.ATime() != 100 || m.Content.MTime() != 200 {
			t.Errorf("times = %d/%d", m.Content.ATime(), m.Content.MTime())
		}
	})
}

func TestTruncateAndUpdateSize(t *testing.T) {
	both(t, func(t *testing.T, s *Server) {
		u, _ := s.Create(dirA, "f", 0o644, 1, 1)
		gotU, old, bs, st := s.Truncate(dirA, "f", 5000)
		if st != wire.StatusOK || gotU != u || old != 0 || bs != DefaultBlockSize {
			t.Fatalf("Truncate = %v %d %d %v", gotU, old, bs, st)
		}
		// UpdateSize only grows.
		if st := s.UpdateSize(dirA, "f", 3000); st != wire.StatusOK {
			t.Fatal(st)
		}
		m, _ := s.Getattr(dirA, "f")
		if m.Content.Size() != 5000 {
			t.Errorf("size shrank via UpdateSize: %d", m.Content.Size())
		}
		if st := s.UpdateSize(dirA, "f", 9000); st != wire.StatusOK {
			t.Fatal(st)
		}
		m, _ = s.Getattr(dirA, "f")
		if m.Content.Size() != 9000 {
			t.Errorf("size = %d, want 9000", m.Content.Size())
		}
		// Truncate may shrink.
		_, old, _, _ = s.Truncate(dirA, "f", 100)
		if old != 9000 {
			t.Errorf("old size = %d", old)
		}
		m, _ = s.Getattr(dirA, "f")
		if m.Content.Size() != 100 {
			t.Errorf("size = %d, want 100", m.Content.Size())
		}
	})
}

func TestOpenAndAccess(t *testing.T) {
	var tick int64
	s := New(Options{ServerID: 1, CheckPermissions: true, Now: func() int64 { tick++; return tick }})
	s.Create(dirA, "f", 0o640, 10, 20)
	if _, st := s.Open(dirA, "f", 10, 99, true); st != wire.StatusOK {
		t.Errorf("owner open rw = %v", st)
	}
	if _, st := s.Open(dirA, "f", 99, 20, false); st != wire.StatusOK {
		t.Errorf("group open ro = %v", st)
	}
	if _, st := s.Open(dirA, "f", 99, 20, true); st != wire.StatusPerm {
		t.Errorf("group open rw on 0640 = %v", st)
	}
	if _, st := s.Open(dirA, "f", 99, 99, false); st != wire.StatusPerm {
		t.Errorf("other open ro on 0640 = %v", st)
	}
	if st := s.Access(dirA, "f", 10, 20, false); st != wire.StatusOK {
		t.Errorf("owner access = %v", st)
	}
	if st := s.Access(dirA, "f", 99, 99, false); st != wire.StatusPerm {
		t.Errorf("other access = %v", st)
	}
	if st := s.Access(dirA, "zz", 10, 20, false); st != wire.StatusNotFound {
		t.Errorf("access missing = %v", st)
	}
}

func TestRemoveAndDirents(t *testing.T) {
	both(t, func(t *testing.T, s *Server) {
		for i := 0; i < 5; i++ {
			s.Create(dirA, fmt.Sprintf("f%d", i), 0o644, 1, 1)
		}
		if !s.DirHasFiles(dirA) {
			t.Fatal("DirHasFiles = false with 5 files")
		}
		ents, more, st := s.ReaddirFiles(dirA, "", 0)
		if st != wire.StatusOK || len(ents) != 5 || more {
			t.Fatalf("readdir = %d entries (more=%v), %v", len(ents), more, st)
		}
		c, st := s.Remove(dirA, "f2", 1, 1)
		if st != wire.StatusOK || c.UUID().IsNil() {
			t.Fatalf("Remove = %v, %v", c, st)
		}
		ents, _, _ = s.ReaddirFiles(dirA, "", 0)
		if len(ents) != 4 {
			t.Errorf("dirents after remove = %d", len(ents))
		}
		for _, e := range ents {
			if e.Name == "f2" {
				t.Error("removed file still in dirents")
			}
		}
		if _, st := s.Remove(dirA, "f2", 1, 1); st != wire.StatusNotFound {
			t.Errorf("double remove = %v", st)
		}
		// Remove all; DirHasFiles must flip off and the dirent key vanish.
		for _, n := range []string{"f0", "f1", "f3", "f4"} {
			s.Remove(dirA, n, 1, 1)
		}
		if s.DirHasFiles(dirA) {
			t.Error("DirHasFiles = true after removing everything")
		}
		if s.FileCount() != 0 {
			t.Errorf("FileCount = %d", s.FileCount())
		}
	})
}

// TestRemoveReportsExtent: Remove hands back the content part it deleted,
// so the client can reclaim exactly the blocks the file's size covers.
func TestRemoveReportsExtent(t *testing.T) {
	both(t, func(t *testing.T, s *Server) {
		u, _ := s.Create(dirA, "f", 0o644, 1, 1)
		if st := s.UpdateSize(dirA, "f", 10000); st != wire.StatusOK {
			t.Fatal(st)
		}
		c, st := s.Remove(dirA, "f", 1, 1)
		if st != wire.StatusOK {
			t.Fatal(st)
		}
		if c.UUID() != u || c.Size() != 10000 || c.BlockSize() == 0 {
			t.Errorf("Remove reported uuid %v size %d block size %d, want %v 10000 non-zero",
				c.UUID(), c.Size(), c.BlockSize(), u)
		}
		if c, st := s.Remove(dirA, "f", 1, 1); st != wire.StatusNotFound || c != nil {
			t.Errorf("second Remove = %v, %v", c, st)
		}
	})
}

func TestCreateWithMetaPreservesUUID(t *testing.T) {
	both(t, func(t *testing.T, s *Server) {
		u, _ := s.Create(dirA, "orig", 0o640, 10, 20)
		m, _ := s.Getattr(dirA, "orig")
		if st := s.CreateWithMeta(dirB, "moved", m); st != wire.StatusOK {
			t.Fatal(st)
		}
		m2, st := s.Getattr(dirB, "moved")
		if st != wire.StatusOK {
			t.Fatal(st)
		}
		if m2.UUID() != u {
			t.Error("CreateWithMeta changed the uuid")
		}
		if m2.Access.Mode() != m.Access.Mode() || m2.Access.UID() != 10 {
			t.Error("metadata not preserved")
		}
		if st := s.CreateWithMeta(dirB, "moved", m); st != wire.StatusExist {
			t.Errorf("dup CreateWithMeta = %v", st)
		}
		bad := &FileMeta{Access: layout.FileAccess{1}, Content: m.Content}
		if st := s.CreateWithMeta(dirB, "bad", bad); st != wire.StatusInval {
			t.Errorf("invalid meta = %v", st)
		}
	})
}

func TestDecoupledPatchFootprint(t *testing.T) {
	// Decoupled chmod writes ~12 bytes; coupled chmod rewrites the whole
	// value. This byte-count asymmetry is the mechanism behind Fig 11.
	dfStore := kv.Instrument(kv.NewHashStore(), kv.RAM)
	cfStore := kv.Instrument(kv.NewHashStore(), kv.RAM)
	var tick int64
	now := func() int64 { tick++; return tick }
	df := New(Options{Store: dfStore, ServerID: 1, Now: now})
	cf := New(Options{Store: cfStore, ServerID: 1, Coupled: true, Now: now})
	df.Create(dirA, "f", 0o644, 1, 1)
	cf.Create(dirA, "f", 0o644, 1, 1)
	// Give the coupled file a block index to carry (size 1 MiB).
	df.UpdateSize(dirA, "f", 1<<20)
	cf.UpdateSize(dirA, "f", 1<<20)

	dfW0 := dfStore.Counters().BytesWritten.Load()
	cfW0 := cfStore.Counters().BytesWritten.Load()
	for i := 0; i < 100; i++ {
		df.Chmod(dirA, "f", 0o600, 1)
		cf.Chmod(dirA, "f", 0o600, 1)
	}
	dfBytes := dfStore.Counters().BytesWritten.Load() - dfW0
	cfBytes := cfStore.Counters().BytesWritten.Load() - cfW0
	if dfBytes*10 > cfBytes {
		t.Errorf("decoupled chmod wrote %d bytes vs coupled %d — expected >10x gap", dfBytes, cfBytes)
	}
}

func TestUUIDsTaggedWithServerID(t *testing.T) {
	s := New(Options{ServerID: 9})
	u, _ := s.Create(dirA, "f", 0o644, 1, 1)
	if u.SID() != 9 {
		t.Errorf("uuid sid = %d, want 9", u.SID())
	}
}
