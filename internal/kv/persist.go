package kv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Persistent adds durability to any Store: every mutation is appended to a
// write-ahead log before being applied, and Snapshot writes a full dump and
// truncates the log. OpenPersistent replays snapshot + log, so a metadata
// server restarted after a crash recovers its state — the role Kyoto
// Cabinet's on-disk databases play in the paper's deployment.
//
// Records are CRC-checked; a torn tail (partial write at crash) is ignored.
// Reads are served by the wrapped in-memory engine, so read performance is
// unchanged.
type Persistent struct {
	inner   Store
	ordered Ordered // nil when inner is unordered

	mu        sync.Mutex
	dir       string
	wal       *os.File
	walW      *bufio.Writer
	mutations int
	// SnapshotEvery triggers an automatic snapshot after this many logged
	// mutations (0 = never automatic).
	SnapshotEvery int
}

// WAL record kinds.
const (
	recPut byte = iota + 1
	recDelete
	recPatch
	recAppend
	recMovePrefix
)

const (
	walFile  = "store.wal"
	snapFile = "store.snap"
)

// OpenPersistent wraps inner with durability rooted at dir, replaying any
// existing snapshot and log into it first.
func OpenPersistent(dir string, inner Store) (*Persistent, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kv: create data dir: %w", err)
	}
	p := &Persistent{inner: inner, dir: dir}
	if o, ok := inner.(Ordered); ok {
		p.ordered = o
	}
	if err := p.replaySnapshot(); err != nil {
		return nil, err
	}
	if err := p.replayWAL(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kv: open wal: %w", err)
	}
	p.wal = f
	p.walW = bufio.NewWriter(f)
	return p, nil
}

func (p *Persistent) replaySnapshot() error {
	data, err := os.ReadFile(filepath.Join(p.dir, snapFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("kv: read snapshot: %w", err)
	}
	for len(data) > 0 {
		rec, rest, ok := decodeRecord(data)
		if !ok {
			break // torn tail
		}
		data = rest
		if rec.kind == recPut {
			p.inner.Put(rec.a, rec.b)
		}
	}
	return nil
}

func (p *Persistent) replayWAL() error {
	data, err := os.ReadFile(filepath.Join(p.dir, walFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("kv: read wal: %w", err)
	}
	for len(data) > 0 {
		rec, rest, ok := decodeRecord(data)
		if !ok {
			break // torn tail from a crash mid-append
		}
		data = rest
		switch rec.kind {
		case recPut:
			p.inner.Put(rec.a, rec.b)
		case recDelete:
			p.inner.Delete(rec.a)
		case recPatch:
			p.inner.PatchInPlace(rec.a, int(rec.n), rec.b)
		case recAppend:
			p.inner.AppendValue(rec.a, rec.b)
		case recMovePrefix:
			if p.ordered != nil {
				p.ordered.MovePrefix(rec.a, rec.b)
			}
		}
	}
	return nil
}

// record is one decoded WAL/snapshot entry: kind, two byte strings, and an
// integer argument (patch offset).
type record struct {
	kind byte
	a, b []byte
	n    uint64
}

// encodeRecord layout: crc32(payload) | payloadLen | payload, where payload
// = kind | uvarint n | uvarint len(a) | a | uvarint len(b) | b.
func appendRecord(dst []byte, r record) []byte {
	var tmp [binary.MaxVarintLen64]byte
	payload := make([]byte, 0, 16+len(r.a)+len(r.b))
	payload = append(payload, r.kind)
	n := binary.PutUvarint(tmp[:], r.n)
	payload = append(payload, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(r.a)))
	payload = append(payload, tmp[:n]...)
	payload = append(payload, r.a...)
	n = binary.PutUvarint(tmp[:], uint64(len(r.b)))
	payload = append(payload, tmp[:n]...)
	payload = append(payload, r.b...)

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func decodeRecord(data []byte) (record, []byte, bool) {
	if len(data) < 8 {
		return record{}, nil, false
	}
	sum := binary.LittleEndian.Uint32(data[0:])
	plen := binary.LittleEndian.Uint32(data[4:])
	if uint32(len(data)-8) < plen {
		return record{}, nil, false
	}
	payload := data[8 : 8+plen]
	rest := data[8+plen:]
	if crc32.ChecksumIEEE(payload) != sum {
		return record{}, nil, false
	}
	var r record
	if len(payload) < 1 {
		return record{}, nil, false
	}
	r.kind = payload[0]
	payload = payload[1:]
	var adv int
	if r.n, adv = binary.Uvarint(payload); adv <= 0 {
		return record{}, nil, false
	}
	payload = payload[adv:]
	la, adv := binary.Uvarint(payload)
	if adv <= 0 || uint64(len(payload)-adv) < la {
		return record{}, nil, false
	}
	payload = payload[adv:]
	r.a = append([]byte(nil), payload[:la]...)
	payload = payload[la:]
	lb, adv := binary.Uvarint(payload)
	if adv <= 0 || uint64(len(payload)-adv) < lb {
		return record{}, nil, false
	}
	payload = payload[adv:]
	r.b = append([]byte(nil), payload[:lb]...)
	return r, rest, true
}

// log appends one record to the WAL, runs apply — the record's mutation
// of the wrapped store — in the same critical section, and applies
// auto-snapshotting. Snapshot takes p.mu too, so every record a snapshot's
// WAL truncation discards is already in the dump: a record logged but not
// yet applied would be lost with the log that held it.
func (p *Persistent) log(r record, apply func()) {
	p.mu.Lock()
	buf := appendRecord(nil, r)
	p.walW.Write(buf)
	p.walW.Flush()
	apply()
	p.mutations++
	doSnap := p.SnapshotEvery > 0 && p.mutations >= p.SnapshotEvery
	p.mu.Unlock()
	if doSnap {
		p.Snapshot()
	}
}

// Snapshot dumps the full store to disk atomically and truncates the WAL.
func (p *Persistent) Snapshot() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	tmp := filepath.Join(p.dir, snapFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("kv: snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	var werr error
	p.inner.ForEach(func(k, v []byte) bool {
		_, werr = w.Write(appendRecord(nil, record{kind: recPut, a: k, b: v}))
		return werr == nil
	})
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("kv: snapshot: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(p.dir, snapFile)); err != nil {
		return fmt.Errorf("kv: snapshot rename: %w", err)
	}
	if err := p.wal.Truncate(0); err != nil {
		return fmt.Errorf("kv: wal truncate: %w", err)
	}
	if _, err := p.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	p.walW.Reset(p.wal)
	p.mutations = 0
	return nil
}

// Close flushes and closes the WAL.
func (p *Persistent) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.walW.Flush(); err != nil {
		p.wal.Close()
		return err
	}
	return p.wal.Close()
}

// Get implements Store.
func (p *Persistent) Get(key []byte) ([]byte, bool) { return p.inner.Get(key) }

// Put implements Store, logging before applying.
func (p *Persistent) Put(key, value []byte) {
	p.log(record{kind: recPut, a: key, b: value}, func() { p.inner.Put(key, value) })
}

// Delete implements Store.
func (p *Persistent) Delete(key []byte) (ok bool) {
	p.log(record{kind: recDelete, a: key}, func() { ok = p.inner.Delete(key) })
	return ok
}

// PatchInPlace implements Store.
func (p *Persistent) PatchInPlace(key []byte, off int, data []byte) (ok bool) {
	if off < 0 {
		return false
	}
	p.log(record{kind: recPatch, a: key, b: data, n: uint64(off)}, func() { ok = p.inner.PatchInPlace(key, off, data) })
	return ok
}

// ReadAt implements Store.
func (p *Persistent) ReadAt(key []byte, off int, buf []byte) bool {
	return p.inner.ReadAt(key, off, buf)
}

// AppendValue implements Store.
func (p *Persistent) AppendValue(key, data []byte) {
	p.log(record{kind: recAppend, a: key, b: data}, func() { p.inner.AppendValue(key, data) })
}

// Len implements Store.
func (p *Persistent) Len() int { return p.inner.Len() }

// ForEach implements Store.
func (p *Persistent) ForEach(fn func(key, value []byte) bool) { p.inner.ForEach(fn) }

// AscendRange implements Ordered when the wrapped store is ordered.
func (p *Persistent) AscendRange(start, end []byte, fn func(key, value []byte) bool) {
	p.ordered.AscendRange(start, end, fn)
}

// AscendPrefix implements Ordered when the wrapped store is ordered.
func (p *Persistent) AscendPrefix(prefix []byte, fn func(key, value []byte) bool) {
	p.ordered.AscendPrefix(prefix, fn)
}

// MovePrefix implements Ordered when the wrapped store is ordered.
func (p *Persistent) MovePrefix(oldPrefix, newPrefix []byte) (n int) {
	p.log(record{kind: recMovePrefix, a: oldPrefix, b: newPrefix}, func() { n = p.ordered.MovePrefix(oldPrefix, newPrefix) })
	return n
}

// IsOrdered reports whether ordered operations are available.
func (p *Persistent) IsOrdered() bool { return p.ordered != nil }

var _ Store = (*Persistent)(nil)
