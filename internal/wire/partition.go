package wire

// Replication and two-partition-rename codecs of the DMS partition plane
// (DESIGN.md §16). The map that says which partition owns what is the
// ClusterMap (clustermap.go).

// LogEntry is one entry of a partition's replicated op log: the mutation's
// opcode and request body, the client dedup id it executed under, and the
// leader-pinned timestamp every replica applies it with (determinism — all
// replicas produce byte-identical inodes).
type LogEntry struct {
	Index uint64
	Req   uint64
	TS    int64
	Op    Op
	Body  []byte
}

// EncodeLogEntry serializes one op-log entry (the OpLogAppend body).
func EncodeLogEntry(le *LogEntry) []byte {
	return NewEnc().U64(le.Index).U64(le.Req).I64(le.TS).U32(uint32(le.Op)).Blob(le.Body).Bytes()
}

// DecodeLogEntry parses an EncodeLogEntry body.
func DecodeLogEntry(body []byte) (*LogEntry, error) {
	d := NewDec(body)
	le := &LogEntry{Index: d.U64(), Req: d.U64(), TS: d.I64(), Op: Op(d.U32()), Body: d.Blob()}
	return le, d.Err()
}

// EncodeLogAppend builds an OpLogAppend request: the leader's retained-log
// floor — followers prune their own log and dedup records below it, so the
// whole group truncates identically — plus one log entry.
func EncodeLogAppend(floor uint64, le *LogEntry) []byte {
	return NewEnc().U64(floor).Blob(EncodeLogEntry(le)).Bytes()
}

// DecodeLogAppend parses an EncodeLogAppend body.
func DecodeLogAppend(body []byte) (floor uint64, le *LogEntry, err error) {
	d := NewDec(body)
	floor = d.U64()
	blob := d.Blob()
	if err := d.Err(); err != nil {
		return 0, nil, err
	}
	le, err = DecodeLogEntry(blob)
	return floor, le, err
}

// EncodeLogAck builds an OpLogAppend OK-response body: the follower's
// applied watermark (its next log index — every entry below it is applied).
// The leader keeps the maximum seen per follower; the group-wide minimum
// over live followers bounds log truncation.
func EncodeLogAck(watermark uint64) []byte {
	return NewEnc().U64(watermark).Bytes()
}

// DecodeLogAck parses an EncodeLogAck body.
func DecodeLogAck(body []byte) (watermark uint64, err error) {
	d := NewDec(body)
	watermark = d.U64()
	return watermark, d.Err()
}

// EncodeLogFetch builds an OpLogFetch request: the fetching replica's own
// address (the leader keys its catch-up session and rejoin decision on it),
// the first index it is missing, and the maximum entries to return.
func EncodeLogFetch(self string, from uint64, max uint32) []byte {
	return NewEnc().Str(self).U64(from).U32(max).Bytes()
}

// DecodeLogFetch parses an EncodeLogFetch body.
func DecodeLogFetch(body []byte) (self string, from uint64, max uint32, err error) {
	d := NewDec(body)
	self, from, max = d.Str(), d.U64(), d.U32()
	return self, from, max, d.Err()
}

// LogFetchResp is the OpLogFetch response: a contiguous run of log entries
// starting at the requested index, the leader's log tip (nextIndex) and
// retained floor (the fetcher prunes to it), and the rejoined flag — set
// when the fetcher had reached the tip and the leader re-admitted it to the
// live fan-out set, ending catch-up.
type LogFetchResp struct {
	Tip      uint64
	Floor    uint64
	Rejoined bool
	Entries  []*LogEntry
}

// EncodeLogFetchResp serializes an OpLogFetch response.
func EncodeLogFetchResp(r *LogFetchResp) []byte {
	e := NewEnc().U64(r.Tip).U64(r.Floor).Bool(r.Rejoined).U32(uint32(len(r.Entries)))
	for _, le := range r.Entries {
		e.Blob(EncodeLogEntry(le))
	}
	return e.Bytes()
}

// DecodeLogFetchResp parses an EncodeLogFetchResp body.
func DecodeLogFetchResp(body []byte) (*LogFetchResp, error) {
	d := NewDec(body)
	r := &LogFetchResp{Tip: d.U64(), Floor: d.U64(), Rejoined: d.Bool()}
	n := d.U32()
	for i := uint32(0); i < n; i++ {
		blob := d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		le, err := DecodeLogEntry(blob)
		if err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, le)
	}
	return r, d.Err()
}

// EncodeSeedUpdate builds an OpSeedUpdate body: absolute state of one
// seeded ancestor inode — present with the given bytes, or absent.
func EncodeSeedUpdate(path string, present bool, inode []byte) []byte {
	return NewEnc().Str(path).Bool(present).Blob(inode).Bytes()
}

// DecodeSeedUpdate parses an OpSeedUpdate body.
func DecodeSeedUpdate(body []byte) (path string, present bool, inode []byte, err error) {
	d := NewDec(body)
	path, present, inode = d.Str(), d.Bool(), d.Blob()
	return path, present, inode, d.Err()
}

// KVRec is one exported store record of a cross-partition rename: a raw
// key/value pair, already re-keyed to the destination prefix by the source.
type KVRec struct {
	Key, Val []byte
}

// RenamePrepare is the payload of the cross-partition rename's first phase:
// the transaction id (minted by the coordinator per attempt, never the
// client's dedup id: a retry must not match an earlier attempt's leftover
// prepare), both cleaned paths, the caller's credentials for
// destination-side validation, and the exported subtree records.
type RenamePrepare struct {
	TxID     uint64
	OldPath  string
	NewPath  string
	UID, GID uint32
	Recs     []KVRec
}

// EncodeRenamePrepare serializes an OpRenamePrepare body.
func EncodeRenamePrepare(rp *RenamePrepare) []byte {
	e := NewEnc().U64(rp.TxID).Str(rp.OldPath).Str(rp.NewPath).U32(rp.UID).U32(rp.GID)
	e.U32(uint32(len(rp.Recs)))
	for _, r := range rp.Recs {
		e.Blob(r.Key).Blob(r.Val)
	}
	return e.Bytes()
}

// DecodeRenamePrepare parses an OpRenamePrepare body.
func DecodeRenamePrepare(body []byte) (*RenamePrepare, error) {
	d := NewDec(body)
	rp := &RenamePrepare{TxID: d.U64(), OldPath: d.Str(), NewPath: d.Str(), UID: d.U32(), GID: d.U32()}
	n := d.Count(4 + 4) // an empty key and an empty value
	if err := d.Err(); err != nil {
		return nil, err
	}
	rp.Recs = make([]KVRec, 0, n)
	for i := 0; i < n; i++ {
		r := KVRec{Key: d.Blob(), Val: d.Blob()}
		if err := d.Err(); err != nil {
			return nil, err
		}
		rp.Recs = append(rp.Recs, r)
	}
	return rp, nil
}

// SrcPrepare is the coordinator-side op-log marker of a cross-partition
// rename (an OpRenameSrcPrepare log entry): enough state for any source
// replica to re-drive or abort the transaction after a leader failover.
type SrcPrepare struct {
	TxID     uint64
	OldPath  string
	NewPath  string
	UID, GID uint32
	DestPID  uint32
}

// EncodeSrcPrepare serializes an OpRenameSrcPrepare log-entry body.
func EncodeSrcPrepare(sp *SrcPrepare) []byte {
	return NewEnc().U64(sp.TxID).Str(sp.OldPath).Str(sp.NewPath).
		U32(sp.UID).U32(sp.GID).U32(sp.DestPID).Bytes()
}

// DecodeSrcPrepare parses an OpRenameSrcPrepare log-entry body.
func DecodeSrcPrepare(body []byte) (*SrcPrepare, error) {
	d := NewDec(body)
	sp := &SrcPrepare{TxID: d.U64(), OldPath: d.Str(), NewPath: d.Str(),
		UID: d.U32(), GID: d.U32(), DestPID: d.U32()}
	return sp, d.Err()
}

// EncodeRenameDecision builds an OpRenameCommit / OpRenameAbort body.
func EncodeRenameDecision(txid uint64) []byte {
	return NewEnc().U64(txid).Bytes()
}

// DecodeRenameDecision parses an OpRenameCommit / OpRenameAbort body.
func DecodeRenameDecision(body []byte) (txid uint64, err error) {
	d := NewDec(body)
	txid = d.U64()
	return txid, d.Err()
}
