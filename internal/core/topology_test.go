package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/client"
	"locofs/internal/netsim"
	"locofs/internal/wire"
)

// Every DMS deployment runs the partition path, so a one-partition,
// one-replica cluster and a sharded, replicated one must be the same system
// to a client. The tests here run each feature on both sides of what used to
// be a fork between a bare DMS and a partition-wrapped one.

const parityCut = "/cut"

// topologies are the DMS shapes the parity script runs on: partitions x
// replicas. The two-partition shapes cut the namespace at parityCut.
var topologies = []struct{ parts, reps int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}}

func startTopology(t *testing.T, parts, reps int) *Cluster {
	t.Helper()
	opts := Options{FMSCount: 2, DMSPartitions: parts, DMSReplicas: reps}
	if parts > 1 {
		opts.DMSCuts = []string{parityCut}
	}
	return startCluster(t, opts)
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return wire.StatusOf(err).String()
}

func names(ents []client.DirEntry, err error) string {
	if err != nil {
		return errString(err)
	}
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name
		if e.IsDir {
			out[i] += "/"
		}
	}
	return strings.Join(out, " ")
}

func attrString(a *client.Attr, err error) string {
	if err != nil {
		return errString(err)
	}
	return fmt.Sprintf("dir=%v mode=%o size=%d", a.IsDir, a.Mode, a.Size)
}

// parityStep is one op of the script. atCut marks the ops whose cost may
// depend on the topology: they name the cut directory itself (its inode and
// its listing live on different partitions) or move a subtree across it.
type parityStep struct {
	name  string
	atCut bool
	run   func(fs *client.Client) string
}

type parityRecord struct {
	result string
	trips  uint64
}

// parityScript is the fixed op script: mkdir, create, stat, chmod, rename
// within a partition and across the cut, rmdir, on both sides of the cut.
func parityScript() []parityStep {
	var s []parityStep
	add := func(name string, atCut bool, run func(fs *client.Client) string) {
		s = append(s, parityStep{name, atCut, run})
	}
	mkdir := func(p string) {
		add("mkdir "+p, p == parityCut, func(fs *client.Client) string { return errString(fs.Mkdir(p, 0o755)) })
	}
	for _, p := range []string{"/a", "/a/sub", "/a/empty", "/a/holder", "/a/holder/in", parityCut, parityCut + "/d", "/a"} {
		mkdir(p) // the second /a answers EEXIST
	}
	for _, dir := range []string{"/a", parityCut + "/d"} {
		for i := 0; i < 4; i++ {
			p := fmt.Sprintf("%s/f%d", dir, i)
			add("create "+p, false, func(fs *client.Client) string { return errString(fs.Create(p, 0o644)) })
		}
	}
	for _, p := range []string{"/a/f0", parityCut + "/d/f3", "/a/nope"} {
		add("statfile "+p, false, func(fs *client.Client) string { return attrString(fs.StatFile(p)) })
	}
	for _, p := range []string{"/a/sub", parityCut, parityCut + "/d", "/nope"} {
		add("statdir "+p, p == parityCut, func(fs *client.Client) string { return attrString(fs.StatDir(p)) })
	}
	add("chmoddir /a/sub", false, func(fs *client.Client) string { return errString(fs.ChmodDir("/a/sub", 0o700)) })
	add("chmod /a/f1", false, func(fs *client.Client) string { return errString(fs.Chmod("/a/f1", 0o600)) })
	add("statdir /a/sub again", false, func(fs *client.Client) string { return attrString(fs.StatDir("/a/sub")) })
	rename := func(from, to string, atCut bool) {
		add("rename "+from+" "+to, atCut, func(fs *client.Client) string {
			n, err := fs.RenameDir(from, to)
			return fmt.Sprintf("%d %s", n, errString(err))
		})
	}
	rename("/a/sub", "/a/sub2", false)
	rename(parityCut+"/d", parityCut+"/e", false)
	rename("/a/sub2", parityCut+"/moved", true)
	add("statfile after rename", false, func(fs *client.Client) string { return attrString(fs.StatFile(parityCut + "/e/f0")) })
	add("statdir moved", true, func(fs *client.Client) string { return attrString(fs.StatDir(parityCut + "/moved")) })
	add("rmdir /a/empty", false, func(fs *client.Client) string { return errString(fs.Rmdir("/a/empty")) })
	// ENOTEMPTY from the DMS, after every FMS probe came back empty. (A
	// directory holding files would do for the result, but its probes race
	// to cancel each other, so its round trips vary run to run.)
	add("rmdir /a/holder", false, func(fs *client.Client) string { return errString(fs.Rmdir("/a/holder")) })
	add("readdir /a", false, func(fs *client.Client) string { return names(fs.Readdir("/a")) })
	add("readdir "+parityCut, true, func(fs *client.Client) string { return names(fs.Readdir(parityCut)) })
	add("readdir /", false, func(fs *client.Client) string { return names(fs.Readdir("/")) })
	return s
}

func runSteps(fs *client.Client, steps []parityStep) []parityRecord {
	out := make([]parityRecord, len(steps))
	for i, st := range steps {
		before := fs.Trips()
		out[i].result = st.run(fs)
		out[i].trips = fs.Trips() - before
	}
	return out
}

// TestTopologyParity runs one op script on 1x1, 2x1, 1x2 and 2x2 and holds
// every topology to the first: identical results everywhere, identical
// per-op round trips away from the cut directory, one round trip to dial,
// and the lookup fused with the first listing page on a cold readdir.
func TestTopologyParity(t *testing.T) {
	steps := parityScript()
	var reads []parityStep // the script's reads, repeated after the AddFMS
	for _, st := range steps {
		if strings.HasPrefix(st.name, "stat") || strings.HasPrefix(st.name, "readdir") {
			reads = append(reads, st)
		}
	}
	var want, wantAfter []parityRecord
	for _, topo := range topologies {
		t.Run(fmt.Sprintf("%dx%d", topo.parts, topo.reps), func(t *testing.T) {
			c := startTopology(t, topo.parts, topo.reps)
			fs := newClient(t, c, ClientConfig{OpTimeout: 250 * time.Millisecond, Retry: client.RetryPolicy{Max: 2}})
			if got := fs.Trips(); got != 1 {
				t.Errorf("Dial took %d round trips, want 1", got)
			}
			got := runSteps(fs, steps)

			// A retried mutation: the leader executes the mkdir but its
			// answer is lost; the retry must replay the recorded outcome,
			// not run again into EEXIST.
			c.Network().SetFault(c.Map().Leader(0), netsim.FaultConfig{DropResponses: 1})
			before := fs.Trips()
			if err := fs.Mkdir("/retried", 0o755); err != nil {
				t.Errorf("retried mkdir: %v", err)
			}
			if d := fs.Trips() - before; d != 2 {
				t.Errorf("retried mkdir took %d round trips, want 2 (attempt + replayed retry)", d)
			}

			// A cold client lists /a: lookup and first page in one
			// pipelined group, plus one page from each FMS.
			cold := newClient(t, c, ClientConfig{})
			before = cold.Trips()
			if ents, err := cold.Readdir("/a"); err != nil || len(ents) != 5 {
				t.Errorf("cold readdir /a: %d entries, %v", len(ents), err)
			}
			if d := cold.Trips() - before; d != 1+2 {
				t.Errorf("cold readdir took %d round trips, want 3 (fused DMS group + 2 FMS)", d)
			}

			// Grow the FMS set mid-script; once the client has caught up with
			// the new map the script's reads must cost what they did.
			if _, err := c.AddFMS(); err != nil {
				t.Fatalf("AddFMS: %v", err)
			}
			waitMapVer(t, fs, c.MapVer())
			gotAfter := runSteps(fs, reads)

			if want == nil {
				want, wantAfter = got, gotAfter
				return
			}
			compareRecords(t, "script", steps, want, got)
			compareRecords(t, "after AddFMS", reads, wantAfter, gotAfter)
		})
	}
}

func compareRecords(t *testing.T, phase string, steps []parityStep, want, got []parityRecord) {
	t.Helper()
	for i, st := range steps {
		if got[i].result != want[i].result {
			t.Errorf("%s: %s = %q, want %q as on 1x1", phase, st.name, got[i].result, want[i].result)
		}
		if !st.atCut && got[i].trips != want[i].trips {
			t.Errorf("%s: %s took %d round trips, want %d as on 1x1", phase, st.name, got[i].trips, want[i].trips)
		}
	}
}

// waitMapVer drives fs until its view reaches map version ver: a client
// learns of a change from the version stamped on its next response and
// refreshes in the background.
func waitMapVer(t *testing.T, fs *client.Client, ver uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fs.Map().Ver != ver {
		if time.Now().After(deadline) {
			t.Fatalf("client still at map version %d, cluster at %d", fs.Map().Ver, ver)
		}
		fs.StatFile("/ver-probe") // ENOENT from an FMS, stamped with its map version
		time.Sleep(time.Millisecond)
	}
}

// TestMembershipSurvivesDMSPromotion: a membership change must reach every
// DMS replica, not only the leader of the day. With only the bootstrap
// leader told, the follower FailoverDMS promotes keeps serving the pre-change
// membership, and every client that asks it routes the migrated keys to
// their old owners: ENOENT for files that exist.
func TestMembershipSurvivesDMSPromotion(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 2, DMSReplicas: 2})
	old := newClient(t, c, ClientConfig{})
	if err := old.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := old.Create(fmt.Sprintf("/d/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.AddFMS()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved == 0 {
		t.Fatalf("degenerate placement: no key moved on the grow (%+v)", rep)
	}
	if err := c.FailoverDMS(0); err != nil {
		t.Fatal(err)
	}
	check := func(name string, fs *client.Client) {
		missing := 0
		for i := 0; i < n; i++ {
			if _, err := fs.StatFile(fmt.Sprintf("/d/f%03d", i)); err != nil {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("%s client: %d/%d files fail to stat after AddFMS + FailoverDMS (%d keys had moved)", name, missing, n, rep.Moved)
		}
		waitMapVer(t, fs, c.MapVer())
	}
	check("pre-existing", old)
	check("fresh", newClient(t, c, ClientConfig{}))
}

// TestClusterAdminAfterDMSFailover: once partition 0's first leader is gone
// so is its address; dialing and the membership changes that dial an admin
// client must bootstrap from the current leader.
func TestClusterAdminAfterDMSFailover(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 2, DMSReplicas: 2})
	fs := newClient(t, c, ClientConfig{})
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.FailoverDMS(0); err != nil {
		t.Fatal(err)
	}
	// The guard is the group's size, not a mode: one replica is left.
	if err := c.FailoverDMS(0); err == nil {
		t.Error("FailoverDMS with no follower left succeeded")
	}
	after, err := c.NewClient(ClientConfig{})
	if err != nil {
		t.Fatalf("NewClient after failover: %v", err)
	}
	defer after.Close()
	if _, err := after.StatDir("/d"); err != nil {
		t.Errorf("stat through the promoted leader: %v", err)
	}
	if _, err := c.AddFMS(); err != nil {
		t.Errorf("AddFMS after failover: %v", err)
	}
	if _, err := c.RemoveFMS(); err != nil {
		t.Errorf("RemoveFMS after failover: %v", err)
	}
}

// dialVia connects a client that bootstraps from the DMS replica at addr.
func dialVia(t *testing.T, c *Cluster, addr string) *client.Client {
	t.Helper()
	m := c.Map()
	cfg := client.Config{Dialer: c.Network(), DMSAddr: addr, OSSAddrs: c.ossAddrs}
	for _, mm := range m.FMS {
		cfg.FMSAddrs = append(cfg.FMSAddrs, mm.Addr)
	}
	fs, err := client.Dial(cfg)
	if err != nil {
		t.Fatalf("dial via %s: %v", addr, err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestDialAnyDMSReplica: Config.DMSAddr is only where the map comes from,
// so any replica of any partition must do — leader or follower. Whichever
// one a client bootstraps from, the parity script gives the same results at
// the same cost, and the directory cache stays coherent per partition: at
// the parent commit the bootstrap connection's lease sequences were booked
// to partition 0 whatever partition it belonged to, so dialing partition
// 1's leader turned every cached partition-0 entry into a stale miss for
// the life of the client (50 round trips where there should be none).
func TestDialAnyDMSReplica(t *testing.T) {
	steps := parityScript()
	var want []parityRecord
	for _, addr := range []string{"dms", "dms-p0-r1", "dms-p1-r0", "dms-p1-r1"} {
		t.Run(addr, func(t *testing.T) {
			c := startTopology(t, 2, 2)
			fs := dialVia(t, c, addr)
			if got := fs.Trips(); got != 1 {
				t.Errorf("Dial took %d round trips, want 1", got)
			}
			got := runSteps(fs, steps)
			if want == nil {
				want = got
			}
			for i, st := range steps {
				if got[i] != want[i] {
					t.Errorf("%s = %+v, want %+v as when dialed via dms", st.name, got[i], want[i])
				}
			}

			// Advance partition 1's recall sequence well past partition 0's,
			// then read two cached directories, one on each side of the cut.
			cached := []string{"/a/holder", parityCut + "/e"}
			for _, p := range cached {
				if _, err := fs.StatDir(p); err != nil {
					t.Fatalf("warm %s: %v", p, err)
				}
			}
			for i := 0; i < 20; i++ {
				p := fmt.Sprintf("%s/tmp%d", parityCut, i)
				if err := fs.Mkdir(p, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := fs.Rmdir(p); err != nil {
					t.Fatal(err)
				}
			}
			before, detail := fs.Trips(), fs.CacheDetail()
			for i := 0; i < 100; i++ {
				if _, err := fs.StatDir(cached[i%2]); err != nil {
					t.Fatal(err)
				}
			}
			after := fs.CacheDetail()
			if d := fs.Trips() - before; d != 0 || after.StaleMisses != detail.StaleMisses {
				t.Errorf("100 StatDir of cached directories took %d round trips and %d stale misses, want 0 and 0 (cache: %+v)",
					d, after.StaleMisses-detail.StaleMisses, after)
			}
		})
	}
}

// runBounded fails the test if fn has not returned after limit: a map change
// that waits on an unreachable server hangs rather than fails.
func runBounded(t *testing.T, what string, limit time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s still blocked after %v", what, limit)
	}
}

// checkMapAgreement requires every live server — DMS replicas, FMS, OSS —
// to hold the cluster's newest map version.
func checkMapAgreement(t *testing.T, c *Cluster) {
	t.Helper()
	cs := c.ClusterStatus()
	if !cs.MapAgreement || cs.MapVer != c.MapVer() {
		t.Errorf("cluster status: map version %d, agreement %v; want %d, true", cs.MapVer, cs.MapAgreement, c.MapVer())
	}
	for _, st := range cs.Servers {
		if !strings.HasPrefix(st.Server, "client-") && st.MapVer != c.MapVer() {
			t.Errorf("%s holds map version %d, want %d", st.Server, st.MapVer, c.MapVer())
		}
	}
}

// TestAddFMSWithDarkDMSFollower: a DMS follower the network has swallowed
// must not hold a membership change hostage (at the parent commit AddFMS
// never returned: the push had to reach every replica and had no deadline).
// The change goes through and names the follower as unreached; when the
// follower is back it pulls the map while catching up, so promoting it
// afterwards loses neither the FMS set nor a directory made while it was
// dark.
func TestAddFMSWithDarkDMSFollower(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dx2", parts), func(t *testing.T) {
			opts := Options{FMSCount: 2, DMSPartitions: parts, DMSReplicas: 2, DMSRepTimeout: 150 * time.Millisecond}
			if parts > 1 {
				opts.DMSCuts = []string{parityCut}
			}
			c := startCluster(t, opts)
			old := newClient(t, c, ClientConfig{})
			if err := old.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			const n = 200
			for i := 0; i < n; i++ {
				if err := old.Create(fmt.Sprintf("/d/f%03d", i), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			const dark = "dms-p0-r1"
			c.Network().SetFault(dark, netsim.FaultConfig{Blackhole: true})
			var rep *client.RebalanceReport
			runBounded(t, "AddFMS with a blackholed DMS follower", 10*time.Second, func() {
				var err error
				if rep, err = c.AddFMS(); err != nil {
					t.Errorf("AddFMS: %v", err)
				}
			})
			if rep == nil || rep.Moved == 0 {
				t.Fatalf("degenerate grow: %+v", rep)
			}
			if len(rep.Unreached) == 0 {
				t.Errorf("report names no unreached server; want %s", dark)
			}
			for _, a := range rep.Unreached {
				if a != dark {
					t.Errorf("report lists %s as unreached; only %s was dark", a, dark)
				}
			}
			// Acked while the follower is dark: the leader excludes it.
			if err := old.Mkdir("/during", 0o755); err != nil {
				t.Fatal(err)
			}

			c.Network().SetFault(dark, netsim.FaultConfig{})
			follower := c.DMSNodes[0][1]
			if err := follower.CatchUp(); err != nil {
				t.Fatalf("catch-up after healing: %v", err)
			}
			if got := follower.Map().Ver; got != c.MapVer() {
				t.Fatalf("healed follower holds map version %d, want %d", got, c.MapVer())
			}
			if err := c.FailoverDMS(0); err != nil {
				t.Fatalf("FailoverDMS onto the healed follower: %v", err)
			}

			for name, fs := range map[string]*client.Client{"pre-existing": old, "fresh": newClient(t, c, ClientConfig{})} {
				missing := 0
				for i := 0; i < n; i++ {
					if _, err := fs.StatFile(fmt.Sprintf("/d/f%03d", i)); err != nil {
						missing++
					}
				}
				if missing > 0 {
					t.Errorf("%s client: %d/%d files fail to stat (%d keys had moved)", name, missing, n, rep.Moved)
				}
				if _, err := fs.StatDir("/during"); err != nil {
					t.Errorf("%s client: directory made while the follower was dark: %v", name, err)
				}
			}
			checkMapAgreement(t, c)
		})
	}
}

// TestMapChangeSupersededAtDeadLeader: a map change serialised while a
// partition leader is dead cannot reach that leader, which must take every
// map; once the partition's failover serialises a newer map the change is
// delivered through it, so the change returns success and names the dead
// leader as unreached instead of failing.
func TestMapChangeSupersededAtDeadLeader(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 2, DMSPartitions: 2, DMSReplicas: 2, DMSCuts: []string{parityCut}})
	changer, failover := newClient(t, c, ClientConfig{}), newClient(t, c, ClientConfig{})
	v := c.MapVer()
	c.rsByAddr["dms-p1-r0"].Shutdown()

	var unreached []string
	var err error
	done := make(chan struct{})
	go func() { defer close(done); _, unreached, err = changer.DropDMSReplica("dms-p0-r1") }()
	lead := c.rsByAddr["dms"]
	for deadline := time.Now().Add(10 * time.Second); lead.MapVer() <= v; {
		if time.Now().After(deadline) {
			t.Fatal("change not serialised after 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, _, ferr := failover.DropDMSReplica("dms-p1-r0"); ferr != nil {
		t.Fatalf("failover of partition 1: %v", ferr)
	}
	<-done
	if err != nil {
		t.Fatalf("change serialised before the failover: %v", err)
	}
	if !slices.Contains(unreached, "dms-p1-r0") {
		t.Errorf("unreached = %v, want the dead leader dms-p1-r0", unreached)
	}
	m, _ := lead.Map()
	if m.Ver != v+2 || len(m.Groups[0]) != 1 || m.Groups[0][0] != "dms" ||
		len(m.Groups[1]) != 1 || m.Groups[1][0] != "dms-p1-r1" {
		t.Errorf("serialised map v%d groups %v, want v%d with both changes", m.Ver, m.Groups, v+2)
	}
}

// TestMapChangesCompose runs the two kinds of map change against each other
// on 2x2: a DMS failover in the middle of an FMS grow's drain, then another
// in the middle of a shrink's. Both go through changeMap, so each edit lands
// on the newest map: the closing edit of the FMS change must keep the
// failover that happened during its drain, and the failover must keep the
// open migration window. A background reader sees no file go missing.
func TestMapChangesCompose(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 2, DMSPartitions: 2, DMSReplicas: 2, DMSCuts: []string{parityCut}})
	fs := newClient(t, c, ClientConfig{})
	const n = 400
	for _, d := range []string{"/d", parityCut, parityCut + "/d"} {
		if err := fs.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d/f%03d", i)
		if i%2 == 1 {
			paths[i] = parityCut + paths[i]
		}
		if err := fs.Create(paths[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var reads, missing atomic.Int64
	var wg sync.WaitGroup
	reader := newClient(t, c, ClientConfig{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// A transport error while a leader is being replaced is fair;
			// ENOENT for a file that exists throughout never is.
			if _, err := reader.StatFile(paths[(i*7)%n]); err == nil {
				reads.Add(1)
			} else if wire.StatusOf(err) == wire.StatusNotFound {
				missing.Add(1)
			}
		}
	}()

	// compose starts the FMS change, waits until its migration window is
	// open on an FMS, and fails partition pid over while the drain runs.
	compose := func(what string, change func() (*client.RebalanceReport, error), pid int) {
		t.Helper()
		opened, fms0 := c.MapVer()+1, c.rsByAddr["fms-0"]
		var rep *client.RebalanceReport
		var err error
		done := make(chan struct{})
		go func() { defer close(done); rep, err = change() }()
		deadline := time.Now().Add(10 * time.Second)
		for fms0.MapVer() < opened {
			if time.Now().After(deadline) {
				t.Fatalf("%s: migration window not open after 10s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if ferr := c.FailoverDMS(pid); ferr != nil {
			t.Errorf("FailoverDMS(%d) during %s: %v", pid, what, ferr)
		}
		<-done
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rep.Moved == 0 || rep.ToVer <= rep.FromVer+1 {
			t.Errorf("%s report %+v: want keys moved and a closing version past the window's", what, rep)
		}
	}
	compose("AddFMS", c.AddFMS, 0)
	compose("RemoveFMS", c.RemoveFMS, 1)
	close(stop)
	wg.Wait()

	if m := missing.Load(); m != 0 || reads.Load() == 0 {
		t.Errorf("background reader: %d ENOENT for existing files in %d reads", m, reads.Load())
	}
	m := c.Map()
	wantFMS := []wire.Member{{ID: 0, Addr: "fms-0"}, {ID: 1, Addr: "fms-1"}}
	if len(m.FMS) != 2 || m.FMS[0] != wantFMS[0] || m.FMS[1] != wantFMS[1] || len(m.Prev) != 0 {
		t.Errorf("final FMS set %v (window %v), want %v and no window", m.FMS, m.Prev, wantFMS)
	}
	if len(m.Groups) != 2 || len(m.Groups[0]) != 1 || m.Groups[0][0] != "dms-p0-r1" ||
		len(m.Groups[1]) != 1 || m.Groups[1][0] != "dms-p1-r1" {
		t.Errorf("final DMS groups %v, want both promoted followers alone", m.Groups)
	}
	// Six changes, each serialised once: open, failover, close, twice over.
	if m.Ver != 7 {
		t.Errorf("final map version %d, want 7", m.Ver)
	}
	checkMapAgreement(t, c)
	for name, cl := range map[string]*client.Client{"pre-existing": fs, "fresh": newClient(t, c, ClientConfig{})} {
		for _, p := range paths {
			if _, err := cl.StatFile(p); err != nil {
				t.Fatalf("%s client: %s after both changes: %v", name, p, err)
			}
		}
		for _, d := range []string{"/after-" + name, parityCut + "/after-" + name} {
			if err := cl.Mkdir(d, 0o755); err != nil {
				t.Errorf("%s client: mkdir %s through the promoted leaders: %v", name, d, err)
			}
		}
	}
}
