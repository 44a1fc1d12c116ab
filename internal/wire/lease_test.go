package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestLeaseGrantTrailerRoundTrip(t *testing.T) {
	// A grant appended after arbitrary payload decodes once the payload is
	// consumed — the trailing-extension pattern readdir's remaining count uses.
	e := NewEnc()
	e.U32(2).Str("a").Str("b")
	AppendLeaseGrant(e, LeaseGrant{Seq: 7, DurMS: 30_000})
	d := NewDec(e.Bytes())
	if n := d.U32(); n != 2 {
		t.Fatalf("payload count = %d", n)
	}
	if d.Str() != "a" || d.Str() != "b" {
		t.Fatal("payload strings mangled")
	}
	g := DecodeLeaseGrant(d)
	if !g.Valid() || g.Seq != 7 || g.DurMS != 30_000 {
		t.Errorf("grant = %+v", g)
	}
	if d.Remaining() != 0 {
		t.Errorf("leftover bytes: %d", d.Remaining())
	}
}

func TestLeaseGrantAbsent(t *testing.T) {
	// An old-format body without the trailer yields the zero (invalid) grant.
	e := NewEnc()
	e.U32(1).Str("only")
	d := NewDec(e.Bytes())
	d.U32()
	d.Str()
	if g := DecodeLeaseGrant(d); g.Valid() {
		t.Errorf("grant from trailerless body = %+v", g)
	}
	var zero LeaseGrant
	if zero.Valid() {
		t.Error("zero grant must be invalid")
	}
}

func TestRecallReqRoundTrip(t *testing.T) {
	body := EncodeRecallReq(41)
	since, err := DecodeRecallReq(body)
	if err != nil || since != 41 {
		t.Errorf("since = %d, err = %v", since, err)
	}
}

func TestRecallRespRoundTrip(t *testing.T) {
	in := []Recall{
		{Seq: 5, Kind: RecallCreated, Path: "/a/b"},
		{Seq: 6, Kind: RecallRemoved, Path: "/a"},
		{Seq: 7, Kind: RecallPatched, Path: "/c"},
	}
	body := EncodeRecallResp(7, false, in)
	cur, reset, got, err := DecodeRecallResp(body)
	if err != nil {
		t.Fatal(err)
	}
	if cur != 7 || reset {
		t.Errorf("cur=%d reset=%v", cur, reset)
	}
	if len(got) != len(in) {
		t.Fatalf("entries = %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestRecallRespReset(t *testing.T) {
	body := EncodeRecallResp(99, true, nil)
	cur, reset, entries, err := DecodeRecallResp(body)
	if err != nil || cur != 99 || !reset || len(entries) != 0 {
		t.Errorf("cur=%d reset=%v entries=%v err=%v", cur, reset, entries, err)
	}
}

func TestRecallRespTruncated(t *testing.T) {
	body := EncodeRecallResp(3, false, []Recall{{Seq: 3, Kind: RecallCreated, Path: "/x"}})
	if _, _, _, err := DecodeRecallResp(body[:len(body)-2]); err == nil {
		t.Error("truncated recall response decoded without error")
	}
}

func TestLeaseRecallOpProperties(t *testing.T) {
	if !OpLeaseRecall.Idempotent() {
		t.Error("OpLeaseRecall must be idempotent (pure read of the recall log)")
	}
	if OpLeaseRecall.String() != "LeaseRecall" {
		t.Errorf("String() = %q", OpLeaseRecall.String())
	}
	kinds := map[RecallKind]string{RecallCreated: "created", RecallRemoved: "removed", RecallPatched: "patched"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d String() = %q, want %q", k, k.String(), want)
		}
	}
}

// FuzzLeaseGrant: the grant trailer is read off every DMS lookup and readdir
// response. Any input must decode without panicking: a body too short for
// the trailer yields the zero grant, anything longer yields the grant its
// first twelve bytes encode, and re-encoding that grant gives those bytes
// back.
func FuzzLeaseGrant(f *testing.F) {
	e := NewEnc()
	AppendLeaseGrant(e, LeaseGrant{Seq: 7, DurMS: 30_000})
	f.Add(e.Bytes())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})      // one byte short
	f.Add(append(make([]byte, 12), "trailing junk"...)) // zero grant, then more
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		g := DecodeLeaseGrant(d)
		if len(data) < 12 {
			if g != (LeaseGrant{}) || d.Remaining() != len(data) {
				t.Fatalf("grant %+v from %d bytes, %d left; want the zero grant, none consumed", g, len(data), d.Remaining())
			}
			return
		}
		again := NewEnc()
		AppendLeaseGrant(again, g)
		if !bytes.Equal(again.Bytes(), data[:12]) || d.Remaining() != len(data)-12 {
			t.Fatalf("encode(decode(%x)) = %x, %d left", data, again.Bytes(), d.Remaining())
		}
		if g2 := DecodeLeaseGrant(NewDec(again.Bytes())); g2 != g {
			t.Fatalf("decode(encode(%+v)) = %+v", g, g2)
		}
	})
}

// FuzzRecallResp: a client decodes OpLeaseRecall responses straight off the
// network. None may panic or size its entries past what the input can back,
// and whatever decodes re-encodes to bytes that decode to the same value.
func FuzzRecallResp(f *testing.F) {
	f.Add(EncodeRecallResp(7, false, []Recall{
		{Seq: 5, Kind: RecallCreated, Path: "/a/b"},
		{Seq: 6, Kind: RecallRemoved, Path: "/a"},
		{Seq: 7, Kind: RecallPatched, Path: "/c"},
	}))
	f.Add(EncodeRecallResp(99, true, nil))
	f.Add(NewEnc().U64(1).Bool(false).U32(1<<32 - 1).Bytes())                     // 2^32-1 entries, none present
	f.Add(NewEnc().U64(1).Bool(false).U32(1).U64(1).U8(9).U32(1<<32 - 1).Bytes()) // a path longer than the body
	f.Fuzz(func(t *testing.T, data []byte) {
		cur, reset, entries, err := DecodeRecallResp(data)
		if err != nil {
			return
		}
		// Every entry consumes at least thirteen bytes of input.
		if cap(entries) > len(data)/13 {
			t.Fatalf("room for %d entries decoded from %d bytes", cap(entries), len(data))
		}
		cur2, reset2, entries2, err := DecodeRecallResp(EncodeRecallResp(cur, reset, entries))
		if err != nil || cur2 != cur || reset2 != reset || !reflect.DeepEqual(entries2, entries) {
			t.Fatalf("decode(encode(%d, %v, %+v)) = %d, %v, %+v, %v", cur, reset, entries, cur2, reset2, entries2, err)
		}
	})
}
