package wire

import "strings"

// DMS partition map and replication codecs (DESIGN.md §16).
//
// The sharded DMS splits the path-keyed directory namespace into subtree
// range partitions. A partition is declared by a *cut* at a directory d: the
// cut partition owns every proper descendant of d — the contiguous key range
// [d+"/", d+"0") of the B+-tree, since '/' is the only byte in ['/','0') —
// while d's own inode stays with its parent's partition. Partition 0 is the
// residual: it owns everything no cut covers, including the root. The map is
// versioned; the version rides in every response header (Msg.PMap) exactly
// the way the FMS membership epoch does, and a newer version on the wire
// tells the client to refetch the map via OpGetPartMap.

// PartCut declares one subtree cut: every proper descendant of Dir belongs
// to partition PID.
type PartCut struct {
	Dir string
	PID uint32
}

// PartMap is the versioned range→replica-group map of a sharded DMS.
// Groups[pid] lists the replica addresses of partition pid with the leader
// first; len(Groups) is the partition count. Partition 0 owns the residual
// namespace (everything under no cut), so every valid map has at least one
// group and the root always resolves to partition 0.
type PartMap struct {
	Ver    uint64
	Cuts   []PartCut
	Groups [][]string
}

// SoloMap is the map of a lone DMS: version 0, one partition whose only
// replica (and so leader) is addr, no cuts. Version 0 is never stamped on a
// response and loses to every map a cluster serves, so it is only ever
// routed by where it was built: the node itself, and a client that has
// dialed addr and not yet been told otherwise.
func SoloMap(addr string) *PartMap {
	return &PartMap{Groups: [][]string{{addr}}}
}

// Locate returns the partition owning the metadata of cleaned path p: the
// partition of the deepest cut whose directory is a proper ancestor of p,
// or partition 0 when no cut covers p. Locating the owner of a directory's
// *listing* (its S: dirent list, which moves with the cut) is done by
// locating p+"/" instead — see LocateList.
func (pm *PartMap) Locate(p string) uint32 {
	best, bestLen := uint32(0), -1
	for _, c := range pm.Cuts {
		if isAncestorOrRoot(c.Dir, p) && len(c.Dir) > bestLen {
			best, bestLen = c.PID, len(c.Dir)
		}
	}
	return best
}

// LocateList returns the partition owning p's subdir listing and the
// children operations under p. A cut directory's own inode lives with its
// parent partition, but its listing moves with the subtree.
func (pm *PartMap) LocateList(p string) uint32 {
	if p == "/" {
		return pm.Locate("/x")
	}
	return pm.Locate(p + "/x")
}

// CutWithin reports whether some cut lies at or below p — i.e. whether the
// subtree rooted at p straddles a partition boundary. Directory renames
// whose source or destination straddles a boundary are refused (the cut is
// a mount-point-like fixture; re-cut the namespace first).
func (pm *PartMap) CutWithin(p string) bool {
	for _, c := range pm.Cuts {
		if c.Dir == p || isAncestorOrRoot(p, c.Dir) {
			return true
		}
	}
	return false
}

// SeedTargets returns the partitions (other than from) that hold a seeded
// ancestor copy of path p's inode: every cut partition whose cut directory
// is p itself or a descendant of p. A mutation of p at its owning partition
// must push the new inode state to each of them (OpSeedUpdate).
func (pm *PartMap) SeedTargets(p string, from uint32) []uint32 {
	var out []uint32
	seen := make(map[uint32]bool)
	for _, c := range pm.Cuts {
		if c.PID != from && !seen[c.PID] && (c.Dir == p || isAncestorOrRoot(p, c.Dir)) {
			seen[c.PID] = true
			out = append(out, c.PID)
		}
	}
	return out
}

// Leader returns the leader address of partition pid ("" if out of range or
// the group is empty).
func (pm *PartMap) Leader(pid uint32) string {
	if int(pid) >= len(pm.Groups) || len(pm.Groups[pid]) == 0 {
		return ""
	}
	return pm.Groups[pid][0]
}

// isAncestorOrRoot reports whether cleaned path a is a proper ancestor of
// cleaned path b.
func isAncestorOrRoot(a, b string) bool {
	if a == "/" {
		return len(b) > 1
	}
	return len(b) > len(a)+1 && b[len(a)] == '/' && strings.HasPrefix(b, a)
}

// EncodePartMap serializes a partition map.
// Layout: ver u64, c u32, c×(dir str, pid u32), g u32, g×(r u32, r×addr str).
func EncodePartMap(pm *PartMap) []byte {
	e := NewEnc().U64(pm.Ver).U32(uint32(len(pm.Cuts)))
	for _, c := range pm.Cuts {
		e.Str(c.Dir).U32(c.PID)
	}
	e.U32(uint32(len(pm.Groups)))
	for _, g := range pm.Groups {
		e.U32(uint32(len(g)))
		for _, a := range g {
			e.Str(a)
		}
	}
	return e.Bytes()
}

// DecodePartMap parses an EncodePartMap body.
func DecodePartMap(body []byte) (*PartMap, error) {
	d := NewDec(body)
	pm := &PartMap{Ver: d.U64()}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		pm.Cuts = append(pm.Cuts, PartCut{Dir: d.Str(), PID: d.U32()})
	}
	g := d.U32()
	for i := uint32(0); i < g && d.Err() == nil; i++ {
		r := d.U32()
		grp := make([]string, 0, r)
		for j := uint32(0); j < r && d.Err() == nil; j++ {
			grp = append(grp, d.Str())
		}
		pm.Groups = append(pm.Groups, grp)
	}
	return pm, d.Err()
}

// EncodeSetPartMap builds an OpSetPartMap request: the map plus the
// receiver's own partition id and replica index within it (the coordinator
// customizes both per destination; a failover changes a follower's index to
// 0, which is how it learns it was promoted).
func EncodeSetPartMap(pm *PartMap, pid uint32, idx int) []byte {
	return NewEnc().U32(pid).I64(int64(idx)).Blob(EncodePartMap(pm)).Bytes()
}

// DecodeSetPartMap parses an OpSetPartMap request.
func DecodeSetPartMap(body []byte) (pm *PartMap, pid uint32, idx int, err error) {
	d := NewDec(body)
	pid = d.U32()
	idx = int(d.I64())
	blob := d.Blob()
	if err := d.Err(); err != nil {
		return nil, 0, 0, err
	}
	pm, err = DecodePartMap(blob)
	return pm, pid, idx, err
}

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
// the transaction id (the client's dedup id — unique and stable across
// coordinator retries), both cleaned paths, the caller's credentials for
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
	n := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	rp.Recs = make([]KVRec, 0, n)
	for i := uint32(0); i < n; i++ {
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
