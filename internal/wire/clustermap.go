package wire

import "strings"

// The cluster map (DESIGN.md §12): the one versioned description of who
// serves what. Every server and every client holds a copy; it changes only
// by read, edit, Ver+1, push (client.changeMap), and a copy with a strictly
// newer Ver replaces an older one wherever it arrives. The version rides in
// every response header (Msg.Map), which is how a holder of an older copy
// learns to refetch it with OpGetMap.
//
// Directory side: the path-keyed namespace is split into subtree range
// partitions. A partition is declared by a *cut* at a directory d: the cut
// partition owns every proper descendant of d — the contiguous key range
// [d+"/", d+"0") of the B+-tree, since '/' is the only byte in ['/','0') —
// while d's own inode stays with its parent's partition. Partition 0 is the
// residual: it owns everything no cut covers, including the root.
//
// File side: files are consistent-hashed over the FMS set by stable ring id.
// While a change of that set is migrating keys, Prev holds the outgoing set
// and clients fall back to a key's previous owner on ENOENT (dual-read).

// Member is one FMS of the map: a stable ring ID (the label the
// consistent-hash ring hashes, so it must never be reused for a different
// server) and the server's transport address.
type Member struct {
	ID   int32
	Addr string
}

// PartCut declares one subtree cut: every proper descendant of Dir belongs
// to partition PID.
type PartCut struct {
	Dir string
	PID uint32
}

// ClusterMap is the versioned placement of the whole metadata service.
// Groups[pid] lists the replica addresses of DMS partition pid with the
// leader first; every valid map has at least one group and the root always
// resolves to partition 0. An empty FMS set means "the FMS list the client
// was configured with" (ring ids = list positions): what a deployment runs
// until its first AddFMS. A non-empty Prev means a migration window is open.
//
// Version 0 means "nothing installed": it is never stamped on a response
// and loses to every other version.
type ClusterMap struct {
	Ver    uint64
	Cuts   []PartCut
	Groups [][]string
	FMS    []Member
	Prev   []Member
}

// SoloMap is the map of a lone DMS: version 0, one partition whose only
// replica (and so leader) is addr, no cuts, no FMS set. It is only ever
// routed by where it was built: the node itself, and a client that has
// dialed addr and not been told otherwise.
func SoloMap(addr string) *ClusterMap {
	return &ClusterMap{Groups: [][]string{{addr}}}
}

// Clone returns a deep copy, the starting point of an edit.
func (m *ClusterMap) Clone() *ClusterMap {
	c := &ClusterMap{
		Ver:    m.Ver,
		Cuts:   append([]PartCut(nil), m.Cuts...),
		Groups: make([][]string, len(m.Groups)),
		FMS:    append([]Member(nil), m.FMS...),
		Prev:   append([]Member(nil), m.Prev...),
	}
	for i, g := range m.Groups {
		c.Groups[i] = append([]string(nil), g...)
	}
	return c
}

// RingIDs returns the ring IDs of ms in listed order, the input of
// chash.NewRing.
func RingIDs(ms []Member) []int {
	out := make([]int, len(ms))
	for i, f := range ms {
		out[i] = int(f.ID)
	}
	return out
}

// Locate returns the partition owning the metadata of cleaned path p: the
// partition of the deepest cut whose directory is a proper ancestor of p,
// or partition 0 when no cut covers p. Locating the owner of a directory's
// *listing* (its S: dirent list, which moves with the cut) is done by
// locating p+"/" instead — see LocateList.
func (m *ClusterMap) Locate(p string) uint32 {
	best, bestLen := uint32(0), -1
	for _, c := range m.Cuts {
		if isAncestorOrRoot(c.Dir, p) && len(c.Dir) > bestLen {
			best, bestLen = c.PID, len(c.Dir)
		}
	}
	return best
}

// LocateList returns the partition owning p's subdir listing and the
// children operations under p. A cut directory's own inode lives with its
// parent partition, but its listing moves with the subtree.
func (m *ClusterMap) LocateList(p string) uint32 {
	if p == "/" {
		return m.Locate("/x")
	}
	return m.Locate(p + "/x")
}

// CutWithin reports whether some cut lies at or below p — i.e. whether the
// subtree rooted at p straddles a partition boundary. Directory renames
// whose source or destination straddles a boundary are refused (the cut is
// a mount-point-like fixture; re-cut the namespace first).
func (m *ClusterMap) CutWithin(p string) bool {
	for _, c := range m.Cuts {
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
func (m *ClusterMap) SeedTargets(p string, from uint32) []uint32 {
	var out []uint32
	seen := make(map[uint32]bool)
	for _, c := range m.Cuts {
		if c.PID != from && !seen[c.PID] && (c.Dir == p || isAncestorOrRoot(p, c.Dir)) {
			seen[c.PID] = true
			out = append(out, c.PID)
		}
	}
	return out
}

// Leader returns the leader address of partition pid ("" if out of range or
// the group is empty).
func (m *ClusterMap) Leader(pid uint32) string {
	if int(pid) >= len(m.Groups) || len(m.Groups[pid]) == 0 {
		return ""
	}
	return m.Groups[pid][0]
}

// PartitionOf returns the partition and replica slot addr holds in the map.
// An address serves one partition for its lifetime: failovers promote within
// a group, they never move an address across groups.
func (m *ClusterMap) PartitionOf(addr string) (pid uint32, idx int, ok bool) {
	for p, g := range m.Groups {
		for i, a := range g {
			if a == addr {
				return uint32(p), i, true
			}
		}
	}
	return 0, 0, false
}

// isAncestorOrRoot reports whether cleaned path a is a proper ancestor of
// cleaned path b.
func isAncestorOrRoot(a, b string) bool {
	if a == "/" {
		return len(b) > 1
	}
	return len(b) > len(a)+1 && b[len(a)] == '/' && strings.HasPrefix(b, a)
}

// EncodeClusterMap serializes a map.
// Layout: ver u64, c u32, c×(dir str, pid u32), g u32, g×(r u32, r×addr str),
// n u32, n×(id u32, addr str), p u32, p×(id u32, addr str).
func EncodeClusterMap(m *ClusterMap) []byte {
	e := NewEnc().U64(m.Ver).U32(uint32(len(m.Cuts)))
	for _, c := range m.Cuts {
		e.Str(c.Dir).U32(c.PID)
	}
	e.U32(uint32(len(m.Groups)))
	for _, g := range m.Groups {
		e.U32(uint32(len(g)))
		for _, a := range g {
			e.Str(a)
		}
	}
	for _, set := range [2][]Member{m.FMS, m.Prev} {
		e.U32(uint32(len(set)))
		for _, f := range set {
			e.U32(uint32(f.ID)).Str(f.Addr)
		}
	}
	return e.Bytes()
}

// DecodeClusterMap parses an EncodeClusterMap body. Counts come from the
// network, so nothing is allocated ahead of the bytes that back it: every
// element consumes input, and the loops stop at the first short read.
func DecodeClusterMap(body []byte) (*ClusterMap, error) {
	d := NewDec(body)
	m := &ClusterMap{Ver: d.U64()}
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		m.Cuts = append(m.Cuts, PartCut{Dir: d.Str(), PID: d.U32()})
	}
	for g := d.U32(); g > 0 && d.Err() == nil; g-- {
		var grp []string
		for r := d.U32(); r > 0 && d.Err() == nil; r-- {
			grp = append(grp, d.Str())
		}
		m.Groups = append(m.Groups, grp)
	}
	for _, set := range [2]*[]Member{&m.FMS, &m.Prev} {
		for n := d.U32(); n > 0 && d.Err() == nil; n-- {
			*set = append(*set, Member{ID: int32(d.U32()), Addr: d.Str()})
		}
	}
	return m, d.Err()
}

// Coords are a map receiver's own coordinates in the map pushed to it: the
// DMS partition and replica slot it holds (slot 0 leads; a failover changes
// a follower's slot to 0, which is how it learns it was promoted), or its
// FMS ring ID. Each is -1 where it does not apply. The pusher sets them per
// destination, so a server never guesses which listed address is its own.
type Coords struct {
	PID, Idx, Ring int32
}

// DMSCoords are the coordinates of replica idx of DMS partition pid.
func DMSCoords(pid uint32, idx int) Coords { return Coords{PID: int32(pid), Idx: int32(idx), Ring: -1} }

// FMSCoords are the coordinates of the FMS with ring ID ring; -1 names a
// server that is on no ring and in no group (an OSS), which only tracks the
// version.
func FMSCoords(ring int32) Coords { return Coords{PID: -1, Idx: -1, Ring: ring} }

// EncodeSetMap builds an OpSetMap request: the receiver's coordinates and
// the map.
func EncodeSetMap(m *ClusterMap, at Coords) []byte {
	return NewEnc().U32(uint32(at.PID)).U32(uint32(at.Idx)).U32(uint32(at.Ring)).
		Blob(EncodeClusterMap(m)).Bytes()
}

// DecodeSetMap parses an OpSetMap request.
func DecodeSetMap(body []byte) (*ClusterMap, Coords, error) {
	d := NewDec(body)
	at := Coords{PID: int32(d.U32()), Idx: int32(d.U32()), Ring: int32(d.U32())}
	blob := d.Blob()
	if err := d.Err(); err != nil {
		return nil, Coords{}, err
	}
	m, err := DecodeClusterMap(blob)
	return m, at, err
}
