package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"locofs/internal/uuid"
)

// Enc builds a request/response body from typed fields. Fields are written
// in a fixed order agreed between client and server for each op.
type Enc struct {
	b []byte
}

// NewEnc returns an encoder with a small preallocated buffer.
func NewEnc() *Enc { return &Enc{b: make([]byte, 0, 64)} }

// encPool recycles encoders between RPCs so the hot path stops allocating a
// fresh buffer per request. See GetEnc/Free.
var encPool = sync.Pool{New: func() any { return &Enc{b: make([]byte, 0, 64)} }}

// maxPooledCap bounds the buffers the pool retains: encoders that grew past
// it (huge write bodies) are dropped rather than pinned forever.
const maxPooledCap = 64 << 10

// GetEnc returns a pooled encoder. Callers that know the encoded body's
// lifetime is over — the RPC completed, so both transports have consumed
// the bytes — hand it back with Free; callers that cannot tell just drop it
// and the GC reclaims it like a NewEnc one.
func GetEnc() *Enc {
	e := encPool.Get().(*Enc)
	e.b = e.b[:0]
	return e
}

// Free recycles the encoder (and the buffer behind its last Bytes result)
// into the pool. The caller must not touch the encoder or any slice
// returned by Bytes afterwards.
func (e *Enc) Free() {
	if cap(e.b) > maxPooledCap {
		return
	}
	encPool.Put(e)
}

// U8 appends a byte.
func (e *Enc) U8(v uint8) *Enc { e.b = append(e.b, v); return e }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) *Enc {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// U32 appends a fixed 32-bit value.
func (e *Enc) U32(v uint32) *Enc {
	e.b = binary.BigEndian.AppendUint32(e.b, v)
	return e
}

// U64 appends a fixed 64-bit value.
func (e *Enc) U64(v uint64) *Enc {
	e.b = binary.BigEndian.AppendUint64(e.b, v)
	return e
}

// I64 appends a signed 64-bit value.
func (e *Enc) I64(v int64) *Enc { return e.U64(uint64(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) *Enc {
	if len(s) > math.MaxUint32 {
		panic("wire: string too long")
	}
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
	return e
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) *Enc {
	e.U32(uint32(len(b)))
	e.b = append(e.b, b...)
	return e
}

// UUID appends a fixed 16-byte UUID.
func (e *Enc) UUID(u uuid.UUID) *Enc {
	e.b = append(e.b, u[:]...)
	return e
}

// Bytes returns the encoded body.
func (e *Enc) Bytes() []byte { return e.b }

// ErrTruncatedBody reports a body shorter than its declared fields.
var ErrTruncatedBody = errors.New("wire: truncated body")

// Dec reads typed fields from a body in order. The first decoding error
// sticks; check Err once after reading every field.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over body.
func NewDec(body []byte) *Dec { return &Dec{b: body} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = ErrTruncatedBody
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U32 reads a fixed 32-bit value.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Count reads a U32 element count that the rest of the body must be able to
// back: every element takes at least min bytes, so a count the remaining
// bytes cannot hold fails as truncated here, before any caller sizes an
// allocation by it. A body is at most MaxBody long; a count is up to 2^32-1.
func (d *Dec) Count(min int) int {
	n := d.U32()
	if d.err == nil && uint64(n) > uint64(len(d.b)/min) {
		d.err = ErrTruncatedBody
		return 0
	}
	return int(n)
}

// U64 reads a fixed 64-bit value.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.U32()
	b := d.take(int(n))
	return string(b)
}

// Blob reads a length-prefixed byte slice (copied).
func (d *Dec) Blob() []byte {
	n := d.U32()
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// UUID reads a fixed 16-byte UUID.
func (d *Dec) UUID() uuid.UUID {
	b := d.take(uuid.Size)
	if b == nil {
		return uuid.UUID{}
	}
	return uuid.MustFromBytes(b)
}

// Remaining returns the unread byte count.
func (d *Dec) Remaining() int { return len(d.b) }
