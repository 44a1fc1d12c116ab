package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

func TestBatchRoundTrip(t *testing.T) {
	subs := []SubReq{
		{Op: OpMkdir, Body: []byte("alpha")},
		{Op: OpPing, Body: nil},
		{Op: OpPutBlock, Body: bytes.Repeat([]byte{0x7}, 1000)},
		{Op: OpBatch, Body: []byte("nested bodies still encode")},
	}
	body, err := EncodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(subs) {
		t.Fatalf("decoded %d subs, want %d", len(got), len(subs))
	}
	for i := range subs {
		if got[i].Op != subs[i].Op || !bytes.Equal(got[i].Body, subs[i].Body) {
			t.Errorf("sub %d = {%v %q}, want {%v %q}",
				i, got[i].Op, got[i].Body, subs[i].Op, subs[i].Body)
		}
	}
}

func TestBatchRespRoundTrip(t *testing.T) {
	resps := []SubResp{
		{Status: StatusOK, Body: []byte("first")},
		{Status: StatusNotFound, Body: nil},
		{Status: StatusNotEmpty, Body: []byte{1}},
	}
	got, err := DecodeBatchResp(EncodeBatchResp(resps))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(resps) {
		t.Fatalf("decoded %d resps, want %d", len(got), len(resps))
	}
	for i := range resps {
		if got[i].Status != resps[i].Status || !bytes.Equal(got[i].Body, resps[i].Body) {
			t.Errorf("resp %d = {%v %q}, want {%v %q}",
				i, got[i].Status, got[i].Body, resps[i].Status, resps[i].Body)
		}
	}
}

func TestBatchEmptyRoundTrip(t *testing.T) {
	body, err := EncodeBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := DecodeBatch(body)
	if err != nil || len(subs) != 0 {
		t.Errorf("empty batch = %v subs, err %v", subs, err)
	}
}

func TestEncodeBatchTooLarge(t *testing.T) {
	subs := make([]SubReq, MaxBatchSubs+1)
	if _, err := EncodeBatch(subs); err != ErrBatchTooLarge {
		t.Errorf("err = %v, want ErrBatchTooLarge", err)
	}
}

func TestDecodeBatchMalformed(t *testing.T) {
	good, _ := EncodeBatch([]SubReq{{Op: OpPing, Body: []byte("x")}})
	cases := map[string][]byte{
		"empty":             {},
		"short count":       {0, 0},
		"huge count":        NewEnc().U32(MaxBatchSubs + 1).Bytes(),
		"truncated sub":     good[:len(good)-1],
		"trailing garbage":  append(append([]byte{}, good...), 0xEE),
		"count over bodies": NewEnc().U32(3).Bytes(),
	}
	for name, body := range cases {
		if _, err := DecodeBatch(body); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodeBatchResp(good[:len(good)-1]); err == nil {
		t.Error("truncated resp body decoded without error")
	}
}

// allocated returns the bytes fn allocates: the least over a few runs,
// because TotalAlloc is process-wide and the runtime now and then allocates
// on its own (5.5 KB at a time under -race).
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodersBoundCountsByInput: an element count read off the wire sizes
// no allocation the rest of the body cannot back. Each body below declares
// 2^22 elements (4096 for a batch, whose count MaxBatchSubs caps) and holds
// none; sized by the count alone, one small frame cost megabytes — and at
// 2^32-1, the process.
func TestDecodersBoundCountsByInput(t *testing.T) {
	const huge = 1 << 22
	cases := map[string]struct {
		body   []byte
		decode func([]byte) error
	}{
		"DecodeBatch": {NewEnc().U32(MaxBatchSubs).Bytes(),
			func(b []byte) error { _, err := DecodeBatch(b); return err }},
		"DecodeBatchResp": {NewEnc().U32(MaxBatchSubs).Bytes(),
			func(b []byte) error { _, err := DecodeBatchResp(b); return err }},
		"DecodeRecallResp": {NewEnc().U64(9).Bool(false).U32(huge).Bytes(),
			func(b []byte) error { _, _, _, err := DecodeRecallResp(b); return err }},
		"DecodeRenamePrepare": {NewEnc().U64(1).Str("/a").Str("/b").U32(0).U32(0).U32(huge).Bytes(),
			func(b []byte) error { _, err := DecodeRenamePrepare(b); return err }},
		"DecodeLogFetchResp": {NewEnc().U64(9).U64(0).Bool(false).U32(huge).Bytes(),
			func(b []byte) error { _, err := DecodeLogFetchResp(b); return err }},
	}
	for name, c := range cases {
		var err error
		got := allocated(func() { err = c.decode(c.body) })
		if err == nil {
			t.Errorf("%s: a count backed by nothing decoded without error", name)
		}
		if limit := uint64(16*len(c.body) + 1024); got > limit {
			t.Errorf("%s: %d bytes allocated decoding a %d-byte body, want <= %d", name, got, len(c.body), limit)
		}
	}
}

// FuzzBatch: the OpBatch envelope carries every multi-request the client
// sends, and request and response bodies share one layout, so each input
// meets both decoders. Neither may panic; neither may size its result past
// what the input can back; and the layout has no slack, so whatever decodes
// re-encodes to the same bytes and decodes again to the same value.
func FuzzBatch(f *testing.F) {
	req, _ := EncodeBatch([]SubReq{
		{Op: OpLookupDir, Body: NewEnc().Str("/a/b").U32(1).U32(2).Bytes()},
		{Op: OpReaddirSubdirs, Body: NewEnc().Str("/a/b").U32(1).U32(2).Str("").U32(1024).U32(0).Bytes()},
		{Op: OpLeaseRecall, Body: EncodeRecallReq(7)},
	})
	f.Add(req)
	f.Add(EncodeBatchResp([]SubResp{{Status: StatusOK, Body: []byte("inode")}, {Status: StatusNotFound}, {Status: StatusWrongPartition}}))
	f.Add(EncodeBatchResp(nil))
	f.Add(NewEnc().U32(MaxBatchSubs).Bytes())                    // the largest count, backed by nothing
	f.Add(NewEnc().U32(1<<32 - 1).U8(0).U8(1).U32(0).Bytes())    // 2^32-1 sub-requests, one present
	f.Add(NewEnc().U32(1).U8(0xff).U8(0).U32(1<<32 - 1).Bytes()) // a blob longer than the body
	f.Fuzz(func(t *testing.T, data []byte) {
		if subs, err := DecodeBatch(data); err == nil {
			if cap(subs) > len(data)/batchSubMin {
				t.Fatalf("room for %d sub-requests decoded from %d bytes", cap(subs), len(data))
			}
			body, err := EncodeBatch(subs)
			if err != nil || !bytes.Equal(body, data) {
				t.Fatalf("encode(decode(data)) = %x, %v; want %x", body, err, data)
			}
			if again, err := DecodeBatch(body); err != nil || !reflect.DeepEqual(again, subs) {
				t.Fatalf("decode(encode(subs)) = %+v, %v; want %+v", again, err, subs)
			}
		}
		if resps, err := DecodeBatchResp(data); err == nil {
			if cap(resps) > len(data)/batchSubMin {
				t.Fatalf("room for %d sub-responses decoded from %d bytes", cap(resps), len(data))
			}
			body := EncodeBatchResp(resps)
			if !bytes.Equal(body, data) {
				t.Fatalf("encode(decode(data)) = %x; want %x", body, data)
			}
			if again, err := DecodeBatchResp(body); err != nil || !reflect.DeepEqual(again, resps) {
				t.Fatalf("decode(encode(resps)) = %+v, %v; want %+v", again, err, resps)
			}
		}
	})
}
