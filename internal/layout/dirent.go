package layout

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sort"

	"locofs/internal/uuid"
)

// Dirent is one backward directory entry: the name of a child plus the
// child's UUID. In the flattened directory tree (§3.2.1) dirents are not
// stored inside their parent directory's data blocks; instead all children
// of a directory that land on the same metadata server have their dirents
// concatenated into a single KV value keyed by the parent's uuid.
//
// The concatenated value is an append-only log: an insertion appends a live
// entry, a removal appends a *tombstone* for the name. This keeps both
// create and remove O(appended bytes) regardless of directory width —
// matching the append-friendly behavior of the log-structured KV stores the
// design targets — at the cost of periodic compaction (CompactDirentsIfDue),
// which servers amortize over removals.
//
// Entry encoding: uvarint header = nameLen<<1 | tombstoneBit, name bytes,
// and (live entries only) the 16-byte UUID.
type Dirent struct {
	Name string
	UUID uuid.UUID
}

// ErrCorruptDirentList reports a malformed concatenated dirent value.
var ErrCorruptDirentList = errors.New("layout: corrupt dirent list")

// AppendDirent appends one live dirent to a concatenated dirent value.
func AppendDirent(list []byte, e Dirent) []byte {
	list = binary.AppendUvarint(list, uint64(len(e.Name))<<1)
	list = append(list, e.Name...)
	return append(list, e.UUID[:]...)
}

// AppendDirentTombstone appends a removal marker for name.
func AppendDirentTombstone(list []byte, name string) []byte {
	list = binary.AppendUvarint(list, uint64(len(name))<<1|1)
	return append(list, name...)
}

// walkDirents replays the log in order, calling fn for every record with
// the record's name (aliasing list) and the offset just past it, where a
// live record's UUID starts.
func walkDirents(list []byte, fn func(name []byte, end int, tomb bool)) error {
	for off := 0; off < len(list); {
		hdr, n := binary.Uvarint(list[off:])
		if n <= 0 {
			return ErrCorruptDirentList
		}
		off += n
		nameLen := hdr >> 1
		tomb := hdr&1 == 1
		need := nameLen
		if !tomb {
			need += uuid.Size
		}
		if uint64(len(list)-off) < need {
			return ErrCorruptDirentList
		}
		end := off + int(nameLen)
		fn(list[off:end], end, tomb)
		off += int(need)
	}
	return nil
}

// direntRec is one record of a dirent log, aliasing the list. end is the
// offset just past the name — where a live record's UUID starts — and so
// also the record's position in log order. first is, for a name's winning
// record, the end of the name's first live insertion.
type direntRec struct {
	name       []byte
	end, first int
	tomb       bool
}

// replayDirents is the one replay behind DecodeDirents, CompactDirents,
// CountDirents and DirentPageAt: one walk into records that alias list, one
// sort by name (log order within a name), and the last record per name
// wins. It returns the live records in name order, reusing the walk's slice;
// no string is allocated. A non-empty cursor drops names <= cursor during
// the walk, so later readdir pages sort less.
func replayDirents(list []byte, cursor string) ([]direntRec, error) {
	var recs []direntRec
	err := walkDirents(list, func(name []byte, end int, tomb bool) {
		if cursor == "" || string(name) > cursor {
			recs = append(recs, direntRec{name: name, end: end, tomb: tomb})
		}
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(recs, func(a, b direntRec) int {
		if c := bytes.Compare(a.name, b.name); c != 0 {
			return c
		}
		return cmp.Compare(a.end, b.end)
	})
	live := recs[:0]
	for i := 0; i < len(recs); {
		first, j := -1, i
		for ; j < len(recs) && bytes.Equal(recs[j].name, recs[i].name); j++ {
			if first < 0 && !recs[j].tomb {
				first = recs[j].end
			}
		}
		if last := recs[j-1]; !last.tomb {
			last.first = first
			live = append(live, last)
		}
		i = j
	}
	return live, nil
}

// inInsertionOrder reorders replayed live records by their name's first
// insertion, the order DecodeDirents and CompactDirents preserve.
func inInsertionOrder(live []direntRec) []direntRec {
	slices.SortFunc(live, func(a, b direntRec) int { return cmp.Compare(a.first, b.first) })
	return live
}

// materialize turns replayed records into Dirents, allocating one string
// per entry.
func materialize(list []byte, live []direntRec) []Dirent {
	out := make([]Dirent, len(live))
	for i, r := range live {
		out[i] = Dirent{Name: string(r.name), UUID: uuid.MustFromBytes(list[r.end : r.end+uuid.Size])}
	}
	return out
}

// DecodeDirents replays a concatenated dirent value into its live entries,
// in first-insertion order.
func DecodeDirents(list []byte) ([]Dirent, error) {
	live, err := replayDirents(list, "")
	if err != nil {
		return nil, err
	}
	return materialize(list, inInsertionOrder(live)), nil
}

// FindDirent replays the list and reports the final state of name.
func FindDirent(list []byte, name string) (Dirent, bool, error) {
	end := -1
	err := walkDirents(list, func(ename []byte, eend int, tomb bool) {
		if string(ename) == name {
			end = eend
			if tomb {
				end = -1
			}
		}
	})
	if err != nil || end < 0 {
		return Dirent{}, false, err
	}
	return Dirent{Name: name, UUID: uuid.MustFromBytes(list[end : end+uuid.Size])}, true, nil
}

// CountDirents returns the number of live entries in the list.
func CountDirents(list []byte) (int, error) {
	live, err := replayDirents(list, "")
	return len(live), err
}

// CompactDirents rewrites the log with tombstones (and the records they
// killed) dropped, returning the compacted value and the live entry count.
// Entries keep their first-insertion order.
func CompactDirents(list []byte) ([]byte, int, error) {
	live, err := replayDirents(list, "")
	if err != nil {
		return nil, 0, err
	}
	out := make([]byte, 0, len(list))
	for _, r := range inInsertionOrder(live) {
		out = binary.AppendUvarint(out, uint64(len(r.name))<<1)
		out = append(out, r.name...)
		out = append(out, list[r.end:r.end+uuid.Size]...)
	}
	return out, len(live), nil
}

// CompactEvery is the compaction cadence both metadata servers share: every
// CompactEvery-th tombstone a server logs, it runs CompactDirentsIfDue on
// that tombstone's list.
const CompactEvery = 64

// CompactDirentsIfDue is the servers' compaction step. One allocation-free
// walk counts records and tombstones; the list is rewritten only when the
// dead records — each tombstone plus the entry it removed — are at least
// half of it. Rewrites thus stay in proportion to garbage: amortised O(1)
// per remove at any directory width. When due, the caller stores out, or
// deletes the key if live == 0.
func CompactDirentsIfDue(list []byte) (out []byte, live int, due bool) {
	recs, tombs := 0, 0
	err := walkDirents(list, func(_ []byte, _ int, tomb bool) {
		recs++
		if tomb {
			tombs++
		}
	})
	if err != nil || 4*tombs < recs {
		return nil, 0, false
	}
	out, live, err = CompactDirents(list)
	return out, live, err == nil
}

// DirentPage decodes the log and returns up to limit live entries in name
// order, strictly after cursor (empty cursor = from the start). more
// reports whether entries remain beyond the page. limit <= 0 means no
// bound. Servers use it to answer readdir in size-bounded pages.
func DirentPage(list []byte, cursor string, limit int) (ents []Dirent, more bool, err error) {
	ents, remaining, err := DirentPageAt(list, cursor, 0, limit)
	return ents, remaining > 0, err
}

// DirentPageAt is DirentPage with a page offset: it returns the skip-th
// page of size limit after cursor. skip > 0 lets a client prefetch several
// consecutive pages with one cursor — e.g. a batch of sub-requests sharing
// a cursor with skip 0..k-1 fetches k pages in one round trip. skip is
// ignored when limit <= 0 (unbounded page). remaining is the exact number
// of live entries beyond the returned page, letting clients size their
// prefetch batches with no speculative over-fetch. Only the returned
// page's names are allocated.
func DirentPageAt(list []byte, cursor string, skip, limit int) (ents []Dirent, remaining int, err error) {
	all, err := replayDirents(list, cursor)
	if err != nil {
		return nil, 0, err
	}
	if limit > 0 && skip > 0 {
		off := skip * limit
		if off >= len(all) {
			return nil, 0, nil
		}
		all = all[off:]
	}
	if limit > 0 && len(all) > limit {
		return materialize(list, all[:limit]), len(all) - limit, nil
	}
	return materialize(list, all), 0, nil
}

// DirentRecords returns the total record count (live + tombstones).
func DirentRecords(list []byte) (int, error) {
	n := 0
	err := walkDirents(list, func([]byte, int, bool) { n++ })
	return n, err
}

// SortDirents orders entries by name, the order readdir presents them in.
func SortDirents(ents []Dirent) {
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
}
