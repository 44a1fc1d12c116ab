package wire

import (
	"reflect"
	"testing"
)

// FuzzPartitionRecords: the partition plane's records arrive off the network
// from peer DMS nodes, and LogEntry.Req in them is all the DMS's at-most-once
// rests on. Each input meets every decoder. None may panic or size its result
// past what the input can back, and whatever decodes re-encodes to bytes that
// decode to the same value.
func FuzzPartitionRecords(f *testing.F) {
	le := &LogEntry{Index: 7, Req: 5<<24 | 3, TS: 1e9, Op: OpMkdir, Body: NewEnc().Str("/a").U32(0o755).U32(0).U32(0).Bytes()}
	f.Add(EncodeLogAppend(2, le))
	f.Add(EncodeLogFetchResp(&LogFetchResp{Tip: 9, Floor: 2, Entries: []*LogEntry{le, {Index: 8, Op: OpSeedUpdate}}}))
	f.Add(EncodeLogFetchResp(&LogFetchResp{Tip: 9, Floor: 9, Rejoined: true}))
	f.Add(EncodeRenamePrepare(&RenamePrepare{TxID: 1, OldPath: "/a", NewPath: "/b/c", UID: 1, GID: 2,
		Recs: []KVRec{{Key: []byte("P:/b/c"), Val: []byte("inode")}, {Key: []byte("D:/b/c/")}}}))
	f.Add(EncodeSrcPrepare(&SrcPrepare{TxID: 1<<63 | 9, OldPath: "/a", NewPath: "/b/c", DestPID: 1}))
	f.Add(EncodeRenameDecision(1 << 63))
	f.Add(EncodeSeedUpdate("/b", true, []byte("inode")))
	f.Add(NewEnc().U64(1).Str("/a").Str("/b").U32(0).U32(0).U32(1<<32 - 1).Bytes()) // 2^32-1 records, none present
	f.Add(NewEnc().U64(0).U64(0).Bool(false).U32(1<<32 - 1).Bytes())                // 2^32-1 entries, none present
	f.Add(NewEnc().U64(0).U32(1<<32 - 1).Bytes())                                   // an entry longer than the body
	f.Fuzz(func(t *testing.T, data []byte) {
		if floor, le, err := DecodeLogAppend(data); err == nil {
			floor2, le2, err := DecodeLogAppend(EncodeLogAppend(floor, le))
			if err != nil || floor2 != floor || !reflect.DeepEqual(le2, le) {
				t.Fatalf("decode(encode(%d, %+v)) = %d, %+v, %v", floor, le, floor2, le2, err)
			}
		}
		if r, err := DecodeLogFetchResp(data); err == nil {
			// Every entry consumes at least four bytes of input.
			if cap(r.Entries) > len(data)/4 {
				t.Fatalf("room for %d entries decoded from %d bytes", cap(r.Entries), len(data))
			}
			again, err := DecodeLogFetchResp(EncodeLogFetchResp(r))
			if err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("decode(encode(r)) = %+v, %v; want %+v", again, err, r)
			}
		}
		if rp, err := DecodeRenamePrepare(data); err == nil {
			// Every record consumes at least eight bytes of input.
			if cap(rp.Recs) > len(data)/8 {
				t.Fatalf("room for %d records decoded from %d bytes", cap(rp.Recs), len(data))
			}
			again, err := DecodeRenamePrepare(EncodeRenamePrepare(rp))
			if err != nil || !reflect.DeepEqual(again, rp) {
				t.Fatalf("decode(encode(rp)) = %+v, %v; want %+v", again, err, rp)
			}
		}
		if sp, err := DecodeSrcPrepare(data); err == nil {
			again, err := DecodeSrcPrepare(EncodeSrcPrepare(sp))
			if err != nil || !reflect.DeepEqual(again, sp) {
				t.Fatalf("decode(encode(sp)) = %+v, %v; want %+v", again, err, sp)
			}
		}
		if txid, err := DecodeRenameDecision(data); err == nil {
			if again, err := DecodeRenameDecision(EncodeRenameDecision(txid)); err != nil || again != txid {
				t.Fatalf("decode(encode(%d)) = %d, %v", txid, again, err)
			}
		}
		if path, present, inode, err := DecodeSeedUpdate(data); err == nil {
			p2, pr2, in2, err := DecodeSeedUpdate(EncodeSeedUpdate(path, present, inode))
			if err != nil || p2 != path || pr2 != present || !reflect.DeepEqual(in2, inode) {
				t.Fatalf("decode(encode(%q, %v, %x)) = %q, %v, %x, %v", path, present, inode, p2, pr2, in2, err)
			}
		}
	})
}
