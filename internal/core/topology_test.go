package core

import (
	"fmt"
	"strings"
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
			c.Network().SetFault(c.dmsGroups[0][0], netsim.FaultConfig{DropResponses: 1})
			before := fs.Trips()
			if err := fs.Mkdir("/retried", 0o755); err != nil {
				t.Errorf("retried mkdir: %v", err)
			}
			if d := fs.Trips() - before; d != 2 {
				t.Errorf("retried mkdir took %d round trips, want 2 (attempt + replayed retry)", d)
			}

			// A cold client lists /a: lookup and first page in one batch,
			// plus one page from each FMS.
			cold := newClient(t, c, ClientConfig{})
			before = cold.Trips()
			if ents, err := cold.Readdir("/a"); err != nil || len(ents) != 5 {
				t.Errorf("cold readdir /a: %d entries, %v", len(ents), err)
			}
			if d := cold.Trips() - before; d != 1+2 {
				t.Errorf("cold readdir took %d round trips, want 3 (fused DMS batch + 2 FMS)", d)
			}

			// Grow the FMS set mid-script; once the client has caught up with
			// the new epoch the script's reads must cost what they did.
			if _, err := c.AddFMS(); err != nil {
				t.Fatalf("AddFMS: %v", err)
			}
			waitEpoch(t, fs, c.Epoch())
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

// waitEpoch drives fs until its membership view reaches epoch: a client
// learns of a change from the epoch stamped on its next response and
// refreshes in the background.
func waitEpoch(t *testing.T, fs *client.Client, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fs.Epoch() != epoch {
		if time.Now().After(deadline) {
			t.Fatalf("client still at epoch %d, cluster at %d", fs.Epoch(), epoch)
		}
		fs.StatFile("/epoch-probe") // ENOENT from an FMS, stamped with its epoch
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
		waitEpoch(t, fs, rep.ToEpoch)
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
