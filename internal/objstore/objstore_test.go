package objstore

import (
	"bytes"
	"testing"

	"locofs/internal/uuid"
	"locofs/internal/wire"
)

var fileU = uuid.New(1, 42)

func TestWriteReadBlock(t *testing.T) {
	s := New(nil)
	data := []byte("hello block")
	if st := s.WriteBlock(fileU, 0, 0, data, 4096); st != wire.StatusOK {
		t.Fatal(st)
	}
	got, st := s.ReadBlock(fileU, 0, 0, uint32(len(data)))
	if st != wire.StatusOK || !bytes.Equal(got, data) {
		t.Errorf("ReadBlock = %q, %v", got, st)
	}
}

func TestPartialWriteMerges(t *testing.T) {
	s := New(nil)
	s.WriteBlock(fileU, 0, 0, []byte("aaaaaaaaaa"), 4096)
	s.WriteBlock(fileU, 0, 3, []byte("BBB"), 4096)
	got, _ := s.ReadBlock(fileU, 0, 0, 10)
	if string(got) != "aaaBBBaaaa" {
		t.Errorf("merged block = %q", got)
	}
}

func TestWriteBeyondBlockRejected(t *testing.T) {
	s := New(nil)
	if st := s.WriteBlock(fileU, 0, 4090, make([]byte, 10), 4096); st != wire.StatusInval {
		t.Errorf("overflow write = %v", st)
	}
}

func TestReadMissingBlockEmpty(t *testing.T) {
	s := New(nil)
	got, st := s.ReadBlock(fileU, 99, 0, 100)
	if st != wire.StatusOK || len(got) != 0 {
		t.Errorf("missing block read = %q, %v", got, st)
	}
}

func TestReadShortAtExtent(t *testing.T) {
	s := New(nil)
	s.WriteBlock(fileU, 0, 0, []byte("12345"), 4096)
	got, _ := s.ReadBlock(fileU, 0, 3, 100)
	if string(got) != "45" {
		t.Errorf("tail read = %q", got)
	}
	got, _ = s.ReadBlock(fileU, 0, 10, 5)
	if len(got) != 0 {
		t.Errorf("past-extent read = %q", got)
	}
}

func TestDeleteRange(t *testing.T) {
	s := New(nil)
	for blk := uint64(0); blk < 10; blk++ {
		s.WriteBlock(fileU, blk, 0, []byte("x"), 4096)
	}
	other := uuid.New(1, 43)
	s.WriteBlock(other, 0, 0, []byte("y"), 4096)

	if n := s.DeleteRange(fileU, 4, 8); n != 4 {
		t.Errorf("DeleteRange(4, 8) = %d, want 4", n)
	}
	for blk, want := range map[uint64]int{3: 1, 4: 0, 7: 0, 8: 1} {
		if got, _ := s.ReadBlock(fileU, blk, 0, 1); len(got) != want {
			t.Errorf("block %d holds %d bytes after DeleteRange(4, 8), want %d", blk, len(got), want)
		}
	}
	if n := s.DeleteRange(fileU, 0, 10); n != 6 {
		t.Errorf("DeleteRange(0, 10) = %d, want 6", n)
	}
	if got, _ := s.ReadBlock(other, 0, 0, 1); len(got) != 1 {
		t.Error("other file's block deleted")
	}
	if s.BlockCount() != 1 {
		t.Errorf("BlockCount = %d, want 1", s.BlockCount())
	}
}

// TestDeleteRangeSparse covers ranges longer than the store, which are
// found by walking it: holes of any length are skipped, and blocks outside
// the range or of another file stay.
func TestDeleteRangeSparse(t *testing.T) {
	s := New(nil)
	other := uuid.New(1, 43)
	for _, blk := range []uint64{0, 100, 1 << 40, 1<<40 + 1} {
		s.WriteBlock(fileU, blk, 0, []byte("x"), 4096)
		s.WriteBlock(other, blk, 0, []byte("y"), 4096)
	}
	if n := s.DeleteRange(fileU, 1, 1<<40+1); n != 2 {
		t.Errorf("DeleteRange(1, 2^40+1) = %d, want 2", n)
	}
	for blk, want := range map[uint64]int{0: 1, 100: 0, 1 << 40: 0, 1<<40 + 1: 1} {
		if got, _ := s.ReadBlock(fileU, blk, 0, 1); len(got) != want {
			t.Errorf("block %d holds %d bytes, want %d", blk, len(got), want)
		}
	}
	if n := s.DeleteRange(fileU, 0, ^uint64(0)); n != 2 {
		t.Errorf("DeleteRange(0, max) = %d, want 2", n)
	}
	if s.BlockCount() != 4 {
		t.Errorf("BlockCount = %d, want the other file's 4", s.BlockCount())
	}
	if n := s.DeleteRange(other, 5, 5); n != 0 {
		t.Errorf("empty range deleted %d", n)
	}
}

func TestBlockKeyDistinct(t *testing.T) {
	a := BlockKey(fileU, 1)
	b := BlockKey(fileU, 2)
	c := BlockKey(uuid.New(1, 43), 1)
	if bytes.Equal(a, b) || bytes.Equal(a, c) {
		t.Error("block keys collide")
	}
	if len(a) != uuid.Size+8 {
		t.Errorf("key length = %d", len(a))
	}
}
