// Package objstore implements the LocoFS object store: file data is chopped
// into fixed-size blocks addressed by uuid + blk_num (§3.3.2). Because the
// address is computable from the file UUID and offset, file metadata carries
// no block index at all, and data blocks never move on rename (the UUID is
// stable).
package objstore

import (
	"bytes"
	"encoding/binary"
	"sync"

	"locofs/internal/kv"
	"locofs/internal/rpc"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// Server is one object store server. Blocks are stored in a KV store under
// the 24-byte key uuid ‖ blk_num.
type Server struct {
	mu    sync.RWMutex
	store kv.Store
}

// New returns an object store backed by st (default: a fresh HashStore).
func New(st kv.Store) *Server {
	if st == nil {
		st = kv.NewHashStore()
	}
	return &Server{store: st}
}

// BlockKey is the paper's uuid+blk_num data address.
func BlockKey(u uuid.UUID, blk uint64) []byte {
	k := make([]byte, uuid.Size+8)
	copy(k, u[:])
	binary.BigEndian.PutUint64(k[uuid.Size:], blk)
	return k
}

// WriteBlock stores data at (u, blk) with the given intra-block offset.
// A partial write into an existing block is merged read-modify-write; the
// block grows as needed up to blockSize.
func (s *Server) WriteBlock(u uuid.UUID, blk uint64, off uint32, data []byte, blockSize uint32) wire.Status {
	if uint64(off)+uint64(len(data)) > uint64(blockSize) {
		return wire.StatusInval
	}
	key := BlockKey(u, blk)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.store.Get(key)
	need := int(off) + len(data)
	if !ok {
		cur = make([]byte, need)
	} else if len(cur) < need {
		cur = append(cur, make([]byte, need-len(cur))...)
	}
	copy(cur[off:], data)
	s.store.Put(key, cur)
	return wire.StatusOK
}

// ReadBlock returns up to length bytes of block blk starting at off. Reads
// past the block's written extent return what exists (possibly empty).
func (s *Server) ReadBlock(u uuid.UUID, blk uint64, off uint32, length uint32) ([]byte, wire.Status) {
	key := BlockKey(u, blk)
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur, ok := s.store.Get(key)
	if !ok || int(off) >= len(cur) {
		return nil, wire.StatusOK
	}
	end := int(off) + int(length)
	if end > len(cur) {
		end = len(cur)
	}
	return cur[off:end], wire.StatusOK
}

// DeleteRange removes every block of u with from <= blk_num < to and
// returns the number deleted. Blocks are not dense: a file's blocks spread
// over the servers by hash, and a sparse write leaves holes. So a range
// no longer than the store has keys is probed block by block, and a
// longer one is found by walking the store, which costs
// O(min(to-from, Len)) either way.
func (s *Server) DeleteRange(u uuid.UUID, from, to uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from >= to {
		return 0
	}
	if to-from <= uint64(s.store.Len()) {
		deleted := 0
		for blk := from; blk < to; blk++ {
			if s.store.Delete(BlockKey(u, blk)) {
				deleted++
			}
		}
		return deleted
	}
	var blks []uint64
	s.store.ForEach(func(k, _ []byte) bool {
		if len(k) == uuid.Size+8 && bytes.Equal(k[:uuid.Size], u[:]) {
			if blk := binary.BigEndian.Uint64(k[uuid.Size:]); blk >= from && blk < to {
				blks = append(blks, blk)
			}
		}
		return true
	})
	for _, blk := range blks {
		s.store.Delete(BlockKey(u, blk))
	}
	return len(blks)
}

// BlockCount returns the number of stored blocks (tests/experiments).
func (s *Server) BlockCount() int { return s.store.Len() }

// Attach registers the object store handlers on an rpc.Server.
func (s *Server) Attach(rs *rpc.Server) {
	rs.Handle(wire.OpPutBlock, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		u := d.UUID()
		blk, off, bsize := d.U64(), d.U32(), d.U32()
		data := d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		return s.WriteBlock(u, blk, off, data, bsize), nil
	})
	rs.Handle(wire.OpGetBlock, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		u := d.UUID()
		blk, off, length := d.U64(), d.U32(), d.U32()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		data, st := s.ReadBlock(u, blk, off, length)
		if st != wire.StatusOK {
			return st, nil
		}
		return wire.StatusOK, wire.NewEnc().Blob(data).Bytes()
	})
	rs.Handle(wire.OpDeleteBlocks, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		u := d.UUID()
		from, to := d.U64(), d.U64()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		n := s.DeleteRange(u, from, to)
		return wire.StatusOK, wire.NewEnc().U32(uint32(n)).Bytes()
	})
}
