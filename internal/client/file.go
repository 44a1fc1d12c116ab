package client

import (
	"context"
	"sync"

	"locofs/internal/fms"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// File is an open file handle. Data is addressed directly on the object
// store by uuid + blk_num — the client computes block numbers from offsets
// (§3.3.2), so no metadata round trip is needed per data access.
type File struct {
	c    *Client
	dir  uuid.UUID
	name string

	mu        sync.Mutex
	uuid      uuid.UUID
	size      uint64
	blockSize uint32
	writable  bool
	closed    bool
}

// Open opens a file for reading (write=false) or reading+writing.
func (c *Client) Open(path string, write bool) (*File, error) {
	return c.OpenContext(context.Background(), path, write)
}

// OpenContext is Open under ctx. The context bounds only the open itself;
// the returned handle's reads and writes are not tied to it.
func (c *Client) OpenContext(ctx context.Context, path string, write bool) (f *File, err error) {
	oc := c.startOpCtx(ctx, "Open")
	defer func() { oc.finish(err) }()
	parent, _, name, err := c.splitPath(path, oc)
	if err != nil {
		return nil, err
	}
	body := wire.NewEnc().UUID(parent.UUID()).Str(name).
		U32(c.uid).U32(c.gid).Bool(write).Bytes()
	st, resp, err := c.fmsCall(oc, parent.UUID(), name, wire.OpOpenFile, body)
	if err != nil {
		return nil, err
	}
	if st != wire.StatusOK {
		return nil, st.Err()
	}
	d := wire.NewDec(resp)
	_, ct := d.Blob(), d.Blob()
	if d.Err() != nil {
		return nil, d.Err()
	}
	var m fms.FileMeta
	m.Content = ct
	if !m.Content.Valid() {
		return nil, wire.StatusIO.Err()
	}
	return &File{
		c:         c,
		dir:       parent.UUID(),
		name:      name,
		uuid:      m.Content.UUID(),
		size:      m.Content.Size(),
		blockSize: m.Content.BlockSize(),
		writable:  write,
	}, nil
}

// UUID returns the file's stable identifier.
func (f *File) UUID() uuid.UUID { return f.uuid }

// Size returns the file size as known by this handle.
func (f *File) Size() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// WriteAt writes p at byte offset off, spanning blocks as needed, then
// pushes the new size to the FMS (a content-part patch, Table 1's "write").
func (f *File) WriteAt(p []byte, off uint64) (n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, wire.StatusInval.Err()
	}
	if !f.writable {
		return 0, wire.StatusPerm.Err()
	}
	if len(p) == 0 {
		return 0, nil
	}
	oc := f.c.startOp("WriteAt")
	defer func() { oc.finish(err) }()
	bs := uint64(f.blockSize)
	written := 0
	for written < len(p) {
		pos := off + uint64(written)
		blk := pos / bs
		bo := uint32(pos % bs)
		n := int(bs - uint64(bo))
		if n > len(p)-written {
			n = len(p) - written
		}
		enc := wire.GetEnc()
		body := enc.UUID(f.uuid).U64(blk).U32(bo).U32(f.blockSize).
			Blob(p[written : written+n]).Bytes()
		st, _, _, err := f.c.ossFor(f.uuid, blk).Call(oc, wire.OpPutBlock, body)
		enc.Free()
		if err != nil {
			return written, err
		}
		if st != wire.StatusOK {
			return written, st.Err()
		}
		written += n
	}
	end := off + uint64(len(p))
	if end > f.size {
		f.size = end
	}
	body := wire.NewEnc().UUID(f.dir).Str(f.name).U64(end).Bytes()
	st, _, err := f.c.fmsCall(oc, f.dir, f.name, wire.OpUpdateSize, body)
	if err != nil {
		return written, err
	}
	if st != wire.StatusOK {
		return written, st.Err()
	}
	return written, nil
}

// ReadAt reads len(p) bytes at offset off, returning the count actually
// read (short at end of file). Unwritten holes read as zeros.
func (f *File) ReadAt(p []byte, off uint64) (n int, err error) {
	f.mu.Lock()
	size := f.size
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return 0, wire.StatusInval.Err()
	}
	if off >= size {
		return 0, nil
	}
	want := uint64(len(p))
	if off+want > size {
		want = size - off
	}
	oc := f.c.startOp("ReadAt")
	defer func() { oc.finish(err) }()
	bs := uint64(f.blockSize)
	read := uint64(0)
	for read < want {
		pos := off + read
		blk := pos / bs
		bo := uint32(pos % bs)
		n := bs - uint64(bo)
		if n > want-read {
			n = want - read
		}
		enc := wire.GetEnc()
		body := enc.UUID(f.uuid).U64(blk).U32(bo).U32(uint32(n)).Bytes()
		st, resp, _, err := f.c.ossFor(f.uuid, blk).Call(oc, wire.OpGetBlock, body)
		enc.Free()
		if err != nil {
			return int(read), err
		}
		if st != wire.StatusOK {
			return int(read), st.Err()
		}
		data := wire.NewDec(resp).Blob()
		// Holes: the block may be short or absent; the missing tail is zeros.
		copy(p[read:read+n], data)
		for i := uint64(len(data)); i < n; i++ {
			p[read+i] = 0
		}
		read += n
	}
	return int(read), nil
}

// Close releases the handle. LocoFS keeps no server-side open state, so
// close is local (the paper routes open/close to the FMS only for metadata;
// our open already fetched it).
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}
