package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"

	"locofs"
)

// opKind is the client call an op makes.
type opKind uint8

const (
	kCreate opKind = iota
	kStat
	kRemove
	kChmod
	kReaddir
	kMkdir
	kRmdir
	kStatDir
	kChmodDir
	kRenameLocal
	kRenameCross
	numKinds
)

// classNames are the latency classes of the per-layer table
// (client.<class>_p50_us). ChmodDir shares chmod's class.
var classNames = []string{"create", "stat", "remove", "chmod", "readdir", "mkdir", "rmdir", "statdir", "rename_local", "rename_cross"}

// classOf maps a kind to its index in classNames.
func classOf(k opKind) int {
	switch {
	case k == kChmodDir:
		return int(kChmod)
	case k > kChmodDir:
		return int(k) - 1
	}
	return int(k)
}

// op is one generated client call together with the result the generator's
// model says it must have. The servers see only these.
type op struct {
	Kind  opKind
	Path  string
	Path2 string // rename target
	// N is the expected entry count of a readdir, or the expected number
	// of directories a rename moves.
	N int
	// Names, when non-nil, is the exact sorted listing a readdir must return.
	Names []string
}

// phase is a set of op lists ("lanes") run concurrently, one goroutine per
// lane, with a barrier at the end. Lane i of every phase of a workload
// touches a namespace no other lane mutates, so each op's expected result
// is independent of interleaving.
type phase struct {
	Name  string
	Lanes [][]op
	// Check, when set, runs untimed after the phase and compares the
	// cluster with the model.
	Check func(fs *locofs.Client) error
}

func (p phase) ops() int {
	n := 0
	for _, l := range p.Lanes {
		n += len(l)
	}
	return n
}

// workload generates a deterministic op stream from a seed: a fixed set-up,
// then an endless sequence of fixed-size rounds. A run executes whole
// rounds, so both sides of a comparison do identical work per round even
// though the number of rounds a run fits into its seconds differs.
type workload interface {
	Spec() spec
	// Setup returns the preload phases.
	Setup() []phase
	// Round returns the next round's phases. Rounds must be requested in
	// order; each call advances the model.
	Round() []phase
	// Verify compares the cluster's namespace with the model.
	Verify(fs *locofs.Client) error
}

// spec is what the runner must know about a workload besides its ops.
type spec struct {
	Name string
	Topo topology
	// CacheEntries is the client directory-cache bound (0 = the default).
	CacheEntries int
	// SharedClient makes all lanes of a round share one client, so that
	// many requests are in flight on one connection per server.
	SharedClient bool
}

// Spec lets a workload satisfy the interface by embedding its spec.
func (s spec) Spec() spec { return s }

// sizes are the fixed counts of every workload, recorded in the README.
// Scaling them (see -quick) keeps their proportions.
type sizes struct {
	Lanes int // client goroutines, min(nproc, 4)

	MixDirs, MixPreload, MixTarget, MixRoundOps int

	StormDirs, StormPerDir, StormLanes, StormRoundOps int

	WideFiles, WideReaddirs int

	TreeDirs, TreeStats, TreeChmods, TreeLocal, TreeCross, TreeCache int
}

func defaultSizes(lanes int) sizes {
	return sizes{
		Lanes:   lanes,
		MixDirs: 1024, MixPreload: 8, MixTarget: 8, MixRoundOps: 8000,
		StormDirs: 256, StormPerDir: 32, StormLanes: 16, StormRoundOps: 24000,
		WideFiles: 6000, WideReaddirs: 4,
		TreeDirs: 2000, TreeStats: 3000, TreeChmods: 1000, TreeLocal: 16, TreeCross: 8, TreeCache: 128,
	}
}

// scaled divides every count by div, keeping each at least min.
func (s sizes) scaled(div int) sizes {
	d := func(v, min int) int {
		if v /= div; v < min {
			return min
		}
		return v
	}
	return sizes{
		Lanes:   s.Lanes,
		MixDirs: d(s.MixDirs, 16), MixPreload: s.MixPreload, MixTarget: s.MixTarget, MixRoundOps: d(s.MixRoundOps, 200),
		StormDirs: d(s.StormDirs, 8), StormPerDir: s.StormPerDir, StormLanes: s.StormLanes, StormRoundOps: d(s.StormRoundOps, 320),
		WideFiles: d(s.WideFiles, 64), WideReaddirs: s.WideReaddirs,
		TreeDirs: d(s.TreeDirs, 80), TreeStats: d(s.TreeStats, 60), TreeChmods: d(s.TreeChmods, 20),
		TreeLocal: d(s.TreeLocal, 2), TreeCross: d(s.TreeCross, 1), TreeCache: d(s.TreeCache, 8),
	}
}

var workloadNames = []string{"file_mix", "stat_storm", "wide_dir", "dir_tree_sharded"}

func newWorkload(name string, seed uint64, sz sizes) (workload, error) {
	switch name {
	case "file_mix":
		return newFileMix(seed, sz), nil
	case "stat_storm":
		return newStatStorm(seed, sz), nil
	case "wide_dir":
		return newWideDir(seed, sz), nil
	case "dir_tree_sharded":
		return newDirTree(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// laneRNG derives lane i's generator from the run seed. PCG's stream is
// fixed by its specification, so a seed names the same ops on every Go.
func laneRNG(seed uint64, lane int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15+uint64(lane)))
}

// streamHash fingerprints an op stream, for the determinism check.
type streamHash struct{ h hash.Hash64 }

func newStreamHash() *streamHash { return &streamHash{h: fnv.New64a()} }

func (s *streamHash) add(phases []phase) {
	var b [8]byte
	for _, p := range phases {
		s.h.Write([]byte(p.Name))
		for i, lane := range p.Lanes {
			binary.LittleEndian.PutUint64(b[:], uint64(i)<<32|uint64(len(lane)))
			s.h.Write(b[:])
			for _, o := range lane {
				binary.LittleEndian.PutUint64(b[:], uint64(o.Kind)<<56|uint64(uint32(o.N)))
				s.h.Write(b[:])
				s.h.Write([]byte(o.Path))
				s.h.Write([]byte{0})
				s.h.Write([]byte(o.Path2))
				s.h.Write([]byte{0})
			}
		}
	}
}

func (s *streamHash) String() string { return fmt.Sprintf("%016x", s.h.Sum64()) }

// ---- file_mix ----

// mixDir is the model of one leaf directory: its live files and scratch
// subdirectories, by name.
type mixDir struct {
	path     string
	files    []string
	subs     []string
	nextFile int
	nextSub  int
}

func (d *mixDir) newFile() string {
	d.nextFile++
	return fmt.Sprintf("f%05d", d.nextFile)
}

// takeAt removes and returns element i of s without keeping order.
func takeAt(s *[]string, i int) string {
	v := (*s)[i]
	last := len(*s) - 1
	(*s)[i] = (*s)[last]
	*s = (*s)[:last]
	return v
}

// fileMix is the paper's headline path (Fig 7/8): an mdtest-like mix over
// many narrow directories. The live set of each directory reverts to
// MixTarget files, so the namespace — and with it per-op cost — is
// stationary however long the run lasts.
type fileMix struct {
	spec
	sz    sizes
	rng   []*rand.Rand
	upper []string    // the directories above the leaves, parents first
	lanes [][]*mixDir // lane -> its leaf directories
}

func newFileMix(seed uint64, sz sizes) *fileMix {
	w := &fileMix{spec: spec{Name: "file_mix", Topo: topoPlain}, sz: sz, lanes: make([][]*mixDir, sz.Lanes)}
	for i := 0; i < sz.Lanes; i++ {
		w.rng = append(w.rng, laneRNG(seed, i))
	}
	// Leaves sit at depth 3 under /m: /m/aX/bY/cZ, 8 x 8 x (MixDirs/64).
	w.upper = []string{"/m"}
	per := (sz.MixDirs + 63) / 64
	n := 0
	for a := 0; a < 8 && n < sz.MixDirs; a++ {
		pa := fmt.Sprintf("/m/a%d", a)
		w.upper = append(w.upper, pa)
		for b := 0; b < 8 && n < sz.MixDirs; b++ {
			pb := fmt.Sprintf("%s/b%d", pa, b)
			w.upper = append(w.upper, pb)
			for c := 0; c < per && n < sz.MixDirs; c++ {
				lane := n % sz.Lanes
				w.lanes[lane] = append(w.lanes[lane], &mixDir{path: fmt.Sprintf("%s/c%03d", pb, c)})
				n++
			}
		}
	}
	return w
}

func (w *fileMix) Setup() []phase {
	tree := make([]op, len(w.upper))
	for i, p := range w.upper {
		tree[i] = op{Kind: kMkdir, Path: p}
	}
	load := make([][]op, w.sz.Lanes)
	for l, dirs := range w.lanes {
		for _, d := range dirs {
			load[l] = append(load[l], op{Kind: kMkdir, Path: d.path})
			for i := 0; i < w.sz.MixPreload; i++ {
				name := d.newFile()
				d.files = append(d.files, name)
				load[l] = append(load[l], op{Kind: kCreate, Path: d.path + "/" + name})
			}
		}
	}
	return []phase{{Name: "mkdir-upper", Lanes: [][]op{tree}}, {Name: "preload", Lanes: load}}
}

// Round draws the mix stat 45, create 20, remove 20, chmod 5, readdir 4,
// mkdir 3, rmdir 3. Create and remove are drawn together and split by how
// far the directory is from its target, which holds the long-run ratio at
// 1:1 while bounding the live set at twice the target; likewise mkdir and
// rmdir of scratch subdirectories.
func (w *fileMix) Round() []phase {
	lanes := make([][]op, w.sz.Lanes)
	per := w.sz.MixRoundOps / w.sz.Lanes
	for l := range lanes {
		rng, dirs := w.rng[l], w.lanes[l]
		ops := make([]op, 0, per)
		for len(ops) < per {
			d := dirs[rng.IntN(len(dirs))]
			r := rng.IntN(100)
			switch {
			case r < 45 && len(d.files) > 0:
				ops = append(ops, op{Kind: kStat, Path: d.path + "/" + d.files[rng.IntN(len(d.files))]})
			case r < 85: // create/remove; also a stat that found its directory empty
				if rng.IntN(2*w.sz.MixTarget) >= len(d.files) {
					name := d.newFile()
					d.files = append(d.files, name)
					ops = append(ops, op{Kind: kCreate, Path: d.path + "/" + name})
				} else {
					ops = append(ops, op{Kind: kRemove, Path: d.path + "/" + takeAt(&d.files, rng.IntN(len(d.files)))})
				}
			case r < 90:
				if len(d.files) > 0 {
					ops = append(ops, op{Kind: kChmod, Path: d.path + "/" + d.files[rng.IntN(len(d.files))]})
				}
			case r < 94:
				ops = append(ops, op{Kind: kReaddir, Path: d.path, N: len(d.files) + len(d.subs)})
			default:
				if rng.IntN(4) >= len(d.subs) {
					d.nextSub++
					name := fmt.Sprintf("s%04d", d.nextSub)
					d.subs = append(d.subs, name)
					ops = append(ops, op{Kind: kMkdir, Path: d.path + "/" + name})
				} else {
					ops = append(ops, op{Kind: kRmdir, Path: d.path + "/" + takeAt(&d.subs, rng.IntN(len(d.subs)))})
				}
			}
		}
		lanes[l] = ops
	}
	return []phase{{Name: "mix", Lanes: lanes}}
}

// Verify lists every leaf directory and compares it with the model's live set.
func (w *fileMix) Verify(fs *locofs.Client) error {
	for _, dirs := range w.lanes {
		for _, d := range dirs {
			want := append(append([]string(nil), d.files...), d.subs...)
			if err := checkListing(fs, d.path, want); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkListing reads dir and compares the names with want (any order).
func checkListing(fs *locofs.Client, dir string, want []string) error {
	ents, err := fs.Readdir(dir)
	if err != nil {
		return fmt.Errorf("verify readdir %s: %w", dir, err)
	}
	got := make([]string, len(ents))
	for i, e := range ents {
		got[i] = e.Name
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(got) != len(want) {
		return fmt.Errorf("verify %s: %d entries, model has %d", dir, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("verify %s: entry %d is %q, model has %q", dir, i, got[i], want[i])
		}
	}
	return nil
}

// ---- stat_storm ----

// statStorm is read-only uniform StatFile with many requests in flight on
// one connection per FMS: the only workload where per-connection send
// serialisation, flush coalescing and server queueing do the work.
type statStorm struct {
	spec
	sz    sizes
	rng   []*rand.Rand
	dirs  []string
	files []string // every preloaded file
}

func newStatStorm(seed uint64, sz sizes) *statStorm {
	w := &statStorm{spec: spec{Name: "stat_storm", Topo: topoPlain, SharedClient: true}, sz: sz}
	for i := 0; i < sz.StormLanes; i++ {
		w.rng = append(w.rng, laneRNG(seed, i))
	}
	// The seed also names the files, so different seeds stat different keys.
	tag := laneRNG(seed, 1<<20).Uint32()
	for d := 0; d < sz.StormDirs; d++ {
		dir := fmt.Sprintf("/s/d%04d", d)
		w.dirs = append(w.dirs, dir)
		for f := 0; f < sz.StormPerDir; f++ {
			w.files = append(w.files, fmt.Sprintf("%s/f%08x-%03d", dir, tag, f))
		}
	}
	return w
}

func (w *statStorm) Setup() []phase {
	load := make([][]op, w.sz.Lanes)
	for d, dir := range w.dirs {
		l := d % w.sz.Lanes
		load[l] = append(load[l], op{Kind: kMkdir, Path: dir})
		for _, f := range w.files[d*w.sz.StormPerDir : (d+1)*w.sz.StormPerDir] {
			load[l] = append(load[l], op{Kind: kCreate, Path: f})
		}
	}
	return []phase{{Name: "mkdir-root", Lanes: [][]op{{{Kind: kMkdir, Path: "/s"}}}}, {Name: "preload", Lanes: load}}
}

func (w *statStorm) Round() []phase {
	lanes := make([][]op, w.sz.StormLanes)
	per := w.sz.StormRoundOps / w.sz.StormLanes
	for l := range lanes {
		ops := make([]op, per)
		for i := range ops {
			ops[i] = op{Kind: kStat, Path: w.files[w.rng[l].IntN(len(w.files))]}
		}
		lanes[l] = ops
	}
	return []phase{{Name: "stat", Lanes: lanes}}
}

func (w *statStorm) Verify(fs *locofs.Client) error {
	for d, dir := range w.dirs {
		want := make([]string, 0, w.sz.StormPerDir)
		for _, f := range w.files[d*w.sz.StormPerDir : (d+1)*w.sz.StormPerDir] {
			want = append(want, f[strings.LastIndexByte(f, '/')+1:])
		}
		if err := checkListing(fs, dir, want); err != nil {
			return err
		}
	}
	return nil
}

// ---- wide_dir ----

// wideDir fills and empties one shared directory every round. The
// flattened-directory design (§3.3, concatenated dirents) is where real
// cost diverges from the model: dirent append and tombstones, AppendValue's
// copy of the whole list, and readdir pagination dominate; transport is a
// minority.
type wideDir struct {
	spec
	sz    sizes
	rng   *rand.Rand
	round int
}

func newWideDir(seed uint64, sz sizes) *wideDir {
	return &wideDir{spec: spec{Name: "wide_dir", Topo: topoPlain}, sz: sz, rng: laneRNG(seed, 0)}
}

func (w *wideDir) Setup() []phase {
	return []phase{{Name: "mkdir", Lanes: [][]op{{{Kind: kMkdir, Path: "/w"}}}}}
}

func (w *wideDir) Round() []phase {
	L := w.sz.Lanes
	per := w.sz.WideFiles / L
	tag := w.rng.Uint32()
	names := make([][]string, L)
	var all []string
	for l := range names {
		for i := 0; i < per; i++ {
			names[l] = append(names[l], fmt.Sprintf("r%03d-%08x-c%d-%06d", w.round, tag, l, i))
		}
		all = append(all, names[l]...)
	}
	w.round++
	sorted := append([]string(nil), all...)
	sort.Strings(sorted)

	create, readdir := make([][]op, L), make([][]op, L)
	stat, remove := make([][]op, L), make([][]op, L)
	shuffled := append([]string(nil), all...)
	w.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for l := 0; l < L; l++ {
		for _, n := range names[l] {
			create[l] = append(create[l], op{Kind: kCreate, Path: "/w/" + n})
		}
		for _, n := range shuffled[l*per : (l+1)*per] {
			stat[l] = append(stat[l], op{Kind: kStat, Path: "/w/" + n})
		}
		own := append([]string(nil), names[l]...)
		w.rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
		for _, n := range own {
			remove[l] = append(remove[l], op{Kind: kRemove, Path: "/w/" + n})
		}
	}
	// Every readdir must return exactly the created names.
	for i := 0; i < w.sz.WideReaddirs; i++ {
		readdir[i%L] = append(readdir[i%L], op{Kind: kReaddir, Path: "/w", N: len(sorted), Names: sorted})
	}
	return []phase{
		{Name: "create", Lanes: create},
		{Name: "readdir", Lanes: readdir},
		{Name: "stat", Lanes: stat},
		{Name: "remove", Lanes: remove, Check: w.Verify},
	}
}

// Verify holds between rounds and at the end: the directory is empty.
func (w *wideDir) Verify(fs *locofs.Client) error { return checkListing(fs, "/w", nil) }

// ---- dir_tree_sharded ----

// treeNode is one directory of a lane's tree in the model.
type treeNode struct {
	path     string
	parent   *treeNode
	children []*treeNode
	depth    int
	size     int // directories in the subtree, itself included
}

// dirTree drives only the DMS: B+-tree lookups and lease grants, the
// partition op log and follower fan-out, two-partition rename, and the
// client's routing and (deliberately undersized) directory cache. The FMS
// sees nothing but rmdir's emptiness probes.
type dirTree struct {
	spec
	sz    sizes
	rng   []*rand.Rand
	round int
}

func newDirTree(seed uint64, sz sizes) *dirTree {
	w := &dirTree{spec: spec{Name: "dir_tree_sharded", Topo: topoSharded, CacheEntries: sz.TreeCache}, sz: sz}
	for i := 0; i < sz.Lanes; i++ {
		w.rng = append(w.rng, laneRNG(seed, i))
	}
	return w
}

// partition roots: /a is owned by partition 0, everything below the cut
// directory /b by partition 1. Lane k works under partition k%2 and lands
// its cross-partition renames in a directory of the other partition.
var treeRoots = [2]string{"/a", shardCutDir}

func (w *dirTree) home(lane int) string { return fmt.Sprintf("%s/t%d", treeRoots[lane%2], lane) }
func (w *dirTree) away(lane int) string { return fmt.Sprintf("%s/l%d", treeRoots[(lane+1)%2], lane) }

func (w *dirTree) Setup() []phase {
	roots := []op{{Kind: kMkdir, Path: treeRoots[0]}, {Kind: kMkdir, Path: treeRoots[1]}}
	own := make([][]op, w.sz.Lanes)
	for l := range own {
		own[l] = []op{{Kind: kMkdir, Path: w.home(l)}, {Kind: kMkdir, Path: w.away(l)}}
	}
	return []phase{{Name: "mkdir-roots", Lanes: [][]op{roots}}, {Name: "mkdir-lanes", Lanes: own}}
}

const (
	treeFanout   = 32
	treeDepth    = 5
	renameMinDir = 8
	renameMaxDir = 64
)

// growTree builds a random tree of n directories under root: each new
// directory picks a uniformly random parent that still has room.
func growTree(rng *rand.Rand, root string, n int) []*treeNode {
	nodes := []*treeNode{{path: root, depth: 1, size: 1}}
	open := []*treeNode{nodes[0]} // nodes that can take another child
	for i := 1; i < n; i++ {
		pi := rng.IntN(len(open))
		p := open[pi]
		c := &treeNode{path: fmt.Sprintf("%s/d%d", p.path, i), parent: p, depth: p.depth + 1, size: 1}
		p.children = append(p.children, c)
		for a := p; a != nil; a = a.parent {
			a.size++
		}
		nodes = append(nodes, c)
		if c.depth < treeDepth {
			open = append(open, c)
		}
		if len(p.children) == treeFanout {
			open[pi] = open[len(open)-1]
			open = open[:len(open)-1]
		}
	}
	return nodes
}

// subtree lists n and its descendants, parents first.
func subtree(n *treeNode) []*treeNode {
	out := []*treeNode{n}
	for i := 0; i < len(out); i++ {
		out = append(out, out[i].children...)
	}
	return out
}

// pickSubtrees chooses up to want disjoint subtrees of renameMinDir to
// renameMaxDir directories, in random order.
func pickSubtrees(rng *rand.Rand, nodes []*treeNode, want int) []*treeNode {
	taken := map[*treeNode]bool{}
	var out []*treeNode
	for _, i := range rng.Perm(len(nodes)) {
		n := nodes[i]
		if len(out) == want {
			break
		}
		if n.parent == nil || n.size < renameMinDir || n.size > renameMaxDir {
			continue
		}
		clash := false
		for a := n; a != nil; a = a.parent {
			clash = clash || taken[a]
		}
		for _, d := range subtree(n) {
			clash = clash || taken[d]
		}
		if !clash {
			taken[n] = true
			out = append(out, n)
		}
	}
	return out
}

func (w *dirTree) Round() []phase {
	L := w.sz.Lanes
	mk, st, ch := make([][]op, L), make([][]op, L), make([][]op, L)
	mv, rm := make([][]op, L), make([][]op, L)
	type moved struct {
		old   string
		nodes []*treeNode
	}
	var renamed []moved
	for l := 0; l < L; l++ {
		rng := w.rng[l]
		root := fmt.Sprintf("%s/r%03d", w.home(l), w.round)
		nodes := growTree(rng, root, w.sz.TreeDirs/L)
		for _, n := range nodes {
			mk[l] = append(mk[l], op{Kind: kMkdir, Path: n.path})
		}
		for i := 0; i < w.sz.TreeStats/L; i++ {
			st[l] = append(st[l], op{Kind: kStatDir, Path: nodes[rng.IntN(len(nodes))].path})
		}
		for i := 0; i < w.sz.TreeChmods/L; i++ {
			ch[l] = append(ch[l], op{Kind: kChmodDir, Path: nodes[rng.IntN(len(nodes))].path})
		}
		nLocal, nCross := w.sz.TreeLocal/L, w.sz.TreeCross/L
		for i, n := range pickSubtrees(rng, nodes, nLocal+nCross) {
			o := op{Kind: kRenameLocal, Path: n.path, Path2: fmt.Sprintf("%s/mv%d", root, i), N: n.size}
			if i >= nLocal {
				o.Kind, o.Path2 = kRenameCross, fmt.Sprintf("%s/r%03d-x%d", w.away(l), w.round, i)
			}
			mv[l] = append(mv[l], o)
			// Detach from the old parent and re-path the subtree in the model.
			n.parent.children = removeNode(n.parent.children, n)
			for a := n.parent; a != nil; a = a.parent {
				a.size -= n.size
			}
			n.parent = nil
			sub := subtree(n)
			for _, d := range sub {
				d.path = o.Path2 + strings.TrimPrefix(d.path, o.Path)
			}
			renamed = append(renamed, moved{old: o.Path, nodes: sub})
		}
		// Children before parents: deepest current path first.
		sort.SliceStable(nodes, func(i, j int) bool {
			return strings.Count(nodes[i].path, "/") > strings.Count(nodes[j].path, "/")
		})
		for _, n := range nodes {
			rm[l] = append(rm[l], op{Kind: kRmdir, Path: n.path})
		}
	}
	w.round++
	// Every renamed subtree resolves at its new path and is ENOENT at the old one.
	checkRenames := func(fs *locofs.Client) error {
		for _, m := range renamed {
			if _, err := fs.StatDir(m.old); !isNotFound(err) {
				return fmt.Errorf("verify rename: old path %s: got %v, want ENOENT", m.old, err)
			}
			for _, n := range m.nodes {
				if _, err := fs.StatDir(n.path); err != nil {
					return fmt.Errorf("verify rename: new path %s: %w", n.path, err)
				}
			}
		}
		return nil
	}
	return []phase{
		{Name: "mkdir", Lanes: mk},
		{Name: "statdir", Lanes: st},
		{Name: "chmod", Lanes: ch},
		{Name: "rename", Lanes: mv, Check: checkRenames},
		{Name: "rmdir", Lanes: rm, Check: w.Verify},
	}
}

func removeNode(s []*treeNode, n *treeNode) []*treeNode {
	for i, c := range s {
		if c == n {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Verify holds between rounds and at the end: every lane's directories are empty.
func (w *dirTree) Verify(fs *locofs.Client) error {
	for l := 0; l < w.sz.Lanes; l++ {
		for _, dir := range []string{w.home(l), w.away(l)} {
			if err := checkListing(fs, dir, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
