package wire

import "errors"

// OpBatch is a container request: its body is a packed sequence of (op,
// body) sub-requests that the server decodes, runs through its regular
// handlers on one goroutine per sub-request, and answers with one response
// holding a (status, body) pair per sub-request, in sub-request order.
// Batching lets many small sub-requests of one logical operation (paged
// readdir prefetches, block deletes) share one framed message and one
// network round trip. Batches must not nest. The opcode sits in a reserved
// transport range (0xFFxx) well clear of every component's op space.
const OpBatch Op = 0xFF00

// MaxBatchSubs bounds the sub-requests of one batch, protecting servers
// from a tiny frame expanding into unbounded work.
const MaxBatchSubs = 4096

// batchSubMin is the least one packed sub-request or sub-response takes: a
// U16 op or status and an empty blob's U32 length.
const batchSubMin = 2 + 4

// ErrBatchTooLarge reports a batch exceeding MaxBatchSubs.
var ErrBatchTooLarge = errors.New("wire: batch exceeds maximum sub-requests")

// ErrBatchMalformed reports a batch body that does not decode.
var ErrBatchMalformed = errors.New("wire: malformed batch body")

// SubReq is one sub-request of an OpBatch message.
type SubReq struct {
	Op   Op
	Body []byte
}

// SubResp is one sub-request's outcome inside an OpBatch response. Statuses
// are per-sub-request: one failing sub-request does not disturb its
// siblings.
type SubResp struct {
	Status Status
	Body   []byte
}

// EncodeBatch packs sub-requests into an OpBatch request body:
//
//	U32 count | repeat: U16 op, U32 len, body
func EncodeBatch(subs []SubReq) ([]byte, error) {
	if len(subs) > MaxBatchSubs {
		return nil, ErrBatchTooLarge
	}
	n := 4
	for _, s := range subs {
		n += 2 + 4 + len(s.Body)
	}
	e := &Enc{b: make([]byte, 0, n)}
	e.U32(uint32(len(subs)))
	for _, s := range subs {
		e.U8(uint8(s.Op >> 8)).U8(uint8(s.Op)).Blob(s.Body)
	}
	return e.Bytes(), nil
}

// DecodeBatch unpacks an OpBatch request body.
func DecodeBatch(body []byte) ([]SubReq, error) {
	d := NewDec(body)
	n := d.Count(batchSubMin)
	if d.Err() != nil || n > MaxBatchSubs {
		return nil, ErrBatchMalformed
	}
	subs := make([]SubReq, 0, n)
	for i := 0; i < n; i++ {
		op := Op(d.U8())<<8 | Op(d.U8())
		b := d.Blob()
		if d.Err() != nil {
			return nil, ErrBatchMalformed
		}
		subs = append(subs, SubReq{Op: op, Body: b})
	}
	if d.Remaining() != 0 {
		return nil, ErrBatchMalformed
	}
	return subs, nil
}

// EncodeBatchResp packs per-sub-request outcomes into an OpBatch response
// body:
//
//	U32 count | repeat: U16 status, U32 len, body
func EncodeBatchResp(resps []SubResp) []byte {
	n := 4
	for _, r := range resps {
		n += 2 + 4 + len(r.Body)
	}
	e := &Enc{b: make([]byte, 0, n)}
	e.U32(uint32(len(resps)))
	for _, r := range resps {
		e.U8(uint8(r.Status >> 8)).U8(uint8(r.Status)).Blob(r.Body)
	}
	return e.Bytes()
}

// DecodeBatchResp unpacks an OpBatch response body.
func DecodeBatchResp(body []byte) ([]SubResp, error) {
	d := NewDec(body)
	n := d.Count(batchSubMin)
	if d.Err() != nil || n > MaxBatchSubs {
		return nil, ErrBatchMalformed
	}
	resps := make([]SubResp, 0, n)
	for i := 0; i < n; i++ {
		st := Status(d.U8())<<8 | Status(d.U8())
		b := d.Blob()
		if d.Err() != nil {
			return nil, ErrBatchMalformed
		}
		resps = append(resps, SubResp{Status: st, Body: b})
	}
	if d.Remaining() != 0 {
		return nil, ErrBatchMalformed
	}
	return resps, nil
}
