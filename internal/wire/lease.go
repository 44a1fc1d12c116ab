package wire

// Lease-coherence codecs (see internal/dms lease table and DESIGN.md §14).
//
// A LeaseGrant rides as a fixed-size trailer at the end of DMS lookup and
// readdir response bodies — the same backward-compatible trailing-extension
// pattern the readdir remaining-count uses — and tells the client "you may
// cache this result for DurMS, and it was valid as of recall seq Seq".
// A Recall is one entry of the DMS's recall log, fetched via OpLeaseRecall
// when the response header's Lease field shows the client fell behind.

// RecallKind classifies what changed about a recalled directory, so the
// client can drop exactly the affected cache entries: a creation kills
// negative entries and the parent's listing, a removal kills the whole
// subtree, an attribute patch kills just the one inode entry.
type RecallKind uint8

const (
	// RecallCreated: a child was created under (or renamed to) Path's
	// parent; Path itself is the created directory. Invalidate negative
	// entries at/under Path and the parent directory's cached listing.
	RecallCreated RecallKind = iota
	// RecallRemoved: Path was removed (or renamed away). Invalidate cached
	// inodes, listings and negatives at/under Path, plus the parent listing.
	RecallRemoved
	// RecallPatched: Path's inode attributes changed in place (chmod/chown).
	// Invalidate the cached inode for Path only.
	RecallPatched
)

// String returns a short name for the recall kind.
func (k RecallKind) String() string {
	switch k {
	case RecallCreated:
		return "created"
	case RecallRemoved:
		return "removed"
	case RecallPatched:
		return "patched"
	}
	return "recall(?)"
}

// LeaseGrant is the cacheability trailer on DMS lookup/readdir responses.
// The zero value (DurMS == 0) means "not cacheable" — e.g. a truncated
// readdir page that doesn't represent the whole subdir listing.
type LeaseGrant struct {
	// Seq is the DMS recall sequence the grant was issued at. A grant is
	// fresh as long as the client has applied (or observed no recalls past)
	// this sequence.
	Seq uint64
	// DurMS is the lease duration in milliseconds from receipt.
	DurMS uint32
}

// Valid reports whether the grant permits caching at all.
func (g LeaseGrant) Valid() bool { return g.DurMS > 0 }

// AppendLeaseGrant appends g as a fixed 12-byte trailer.
func AppendLeaseGrant(e *Enc, g LeaseGrant) {
	e.U64(g.Seq).U32(g.DurMS)
}

// DecodeLeaseGrant consumes a trailing LeaseGrant if the decoder has one
// left, returning the zero (invalid) grant otherwise. Callers must have
// consumed everything that precedes the trailer first.
func DecodeLeaseGrant(d *Dec) LeaseGrant {
	if d.Remaining() < 12 {
		return LeaseGrant{}
	}
	return LeaseGrant{Seq: d.U64(), DurMS: d.U32()}
}

// Recall is one published lease-recall log entry.
type Recall struct {
	Seq  uint64
	Kind RecallKind
	Path string
}

// EncodeRecallReq encodes an OpLeaseRecall request: fetch entries with
// Seq > since.
func EncodeRecallReq(since uint64) []byte {
	e := NewEnc()
	defer e.Free()
	e.U64(since)
	return append([]byte(nil), e.Bytes()...)
}

// DecodeRecallReq decodes an OpLeaseRecall request body.
func DecodeRecallReq(body []byte) (since uint64, err error) {
	d := NewDec(body)
	since = d.U64()
	return since, d.Err()
}

// EncodeRecallResp encodes an OpLeaseRecall response: the server's current
// recall seq, a reset flag (true when the requested window predates the
// bounded log's retention, so the client must drop its whole cache), and
// the retained entries after `since` (empty when reset).
func EncodeRecallResp(cur uint64, reset bool, entries []Recall) []byte {
	e := NewEnc()
	defer e.Free()
	e.U64(cur).Bool(reset).U32(uint32(len(entries)))
	for _, r := range entries {
		e.U64(r.Seq).U8(uint8(r.Kind)).Str(r.Path)
	}
	return append([]byte(nil), e.Bytes()...)
}

// DecodeRecallResp decodes an OpLeaseRecall response body.
func DecodeRecallResp(body []byte) (cur uint64, reset bool, entries []Recall, err error) {
	d := NewDec(body)
	cur = d.U64()
	reset = d.Bool()
	n := d.Count(8 + 1 + 4) // seq, kind, an empty path
	if err := d.Err(); err != nil {
		return 0, false, nil, err
	}
	entries = make([]Recall, 0, n)
	for i := 0; i < n; i++ {
		r := Recall{Seq: d.U64(), Kind: RecallKind(d.U8()), Path: d.Str()}
		if err := d.Err(); err != nil {
			return 0, false, nil, err
		}
		entries = append(entries, r)
	}
	return cur, reset, entries, nil
}
