package dms

import (
	"fmt"
	"testing"
	"time"

	"locofs/internal/wire"
)

// newTestTable returns a lease table on a manually-advanced clock.
func newTestTable(dur time.Duration) (*leaseTable, *int64) {
	var now int64
	return newLeaseTable(dur, func() int64 { return now }), &now
}

func TestLeaseSuppressionWithoutGrants(t *testing.T) {
	lt, _ := newTestTable(time.Second)
	if pub := lt.bumpCreated("/a", "/"); pub != (pubResult{}) {
		t.Errorf("create without grants published %+v", pub)
	}
	if pub := lt.bumpRemoved("/a", "/"); pub != (pubResult{}) {
		t.Errorf("remove without grants published %+v", pub)
	}
	if pub := lt.bumpPatched("/a"); pub != (pubResult{}) {
		t.Errorf("patch without grants published %+v", pub)
	}
	if got := lt.Seq(); got != 0 {
		t.Errorf("seq = %d after suppressed mutations, want 0", got)
	}
	if got := lt.Suppressed(); got != 3 {
		t.Errorf("suppressed = %d, want 3", got)
	}
}

func TestLeasePublishOnLiveGrant(t *testing.T) {
	lt, _ := newTestTable(time.Second)

	// An inode grant makes patch and remove of that path publish, but not
	// create (a negative entry is what a create invalidates).
	lt.grantChain([]PathInode{{Path: "/a"}})
	if pub := lt.bumpPatched("/a"); pub.N != 1 || pub.Last != 1 {
		t.Errorf("patch with live inode grant: %+v", pub)
	}
	if pub := lt.bumpRemoved("/a", "/"); pub.N != 1 || pub.Last != 2 {
		t.Errorf("remove with live inode grant: %+v", pub)
	}
	if pub := lt.bumpCreated("/a", "/"); pub.N != 0 {
		t.Errorf("create with only an inode grant published %+v", pub)
	}

	// A negative grant makes exactly the matching create publish.
	lt.grantNeg("/b")
	if pub := lt.bumpCreated("/b", "/"); pub.N != 1 {
		t.Errorf("create with live negative grant: %+v", pub)
	}
	if pub := lt.bumpCreated("/c", "/"); pub.N != 0 {
		t.Errorf("create of a sibling published %+v", pub)
	}

	// A listing grant on the parent makes creates and removes under it
	// publish.
	lt.grantList("/p")
	if pub := lt.bumpCreated("/p/x", "/p"); pub.N != 1 {
		t.Errorf("create under live listing: %+v", pub)
	}
	if pub := lt.bumpRemoved("/p/x", "/p"); pub.N != 1 {
		t.Errorf("remove under live listing: %+v", pub)
	}
}

func TestLeaseGrantExpiryRestoresSuppression(t *testing.T) {
	lt, now := newTestTable(time.Second)
	lt.grantChain([]PathInode{{Path: "/a"}})
	*now += int64(lt.horizon) + 1
	if pub := lt.bumpPatched("/a"); pub.N != 0 {
		t.Errorf("patch after grant horizon published %+v", pub)
	}
}

// TestLeaseGrantHorizon pins the grant horizon at two leases: a client
// holds an entry exactly as long as its grant, and the server keeps the
// suppression record one lease longer as slack. A mutation inside the
// horizon publishes, one past it is suppressed.
func TestLeaseGrantHorizon(t *testing.T) {
	const dur = time.Second
	lt, now := newTestTable(dur)
	lt.grantChain([]PathInode{{Path: "/a"}})
	*now += int64(3 * dur / 2)
	if pub := lt.bumpPatched("/a"); pub.N != 1 {
		t.Errorf("patch at grant + 1.5 leases published %+v, want one recall", pub)
	}
	lt.grantChain([]PathInode{{Path: "/b"}})
	*now += int64(2*dur) + 1
	if pub := lt.bumpPatched("/b"); pub.N != 0 {
		t.Errorf("patch at grant + 2 leases + 1ns published %+v, want suppression", pub)
	}
}

func TestLeaseRenameAlwaysPublishesBothSides(t *testing.T) {
	lt, _ := newTestTable(time.Second)
	pub := lt.bumpRenamed("/old", "/new")
	if pub.N != 2 || pub.Last != 2 {
		t.Fatalf("rename published %+v, want N=2 Last=2", pub)
	}
	_, reset, ents := lt.entriesSince(0)
	if reset || len(ents) != 2 {
		t.Fatalf("entriesSince(0) = reset=%v %v", reset, ents)
	}
	if ents[0].Kind != wire.RecallRemoved || ents[0].Path != "/old" {
		t.Errorf("first rename recall = %+v", ents[0])
	}
	if ents[1].Kind != wire.RecallCreated || ents[1].Path != "/new" {
		t.Errorf("second rename recall = %+v", ents[1])
	}
}

func TestLeaseEntriesSince(t *testing.T) {
	lt, _ := newTestTable(time.Second)
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/d%d", i)
		lt.grantChain([]PathInode{{Path: p}})
		lt.bumpPatched(p)
	}
	cur, reset, ents := lt.entriesSince(2)
	if cur != 5 || reset || len(ents) != 3 {
		t.Fatalf("entriesSince(2) = %d reset=%v %d entries", cur, reset, len(ents))
	}
	for i, e := range ents {
		if e.Seq != uint64(3+i) {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, 3+i)
		}
	}
	// Up to date: nothing to fetch.
	if cur, reset, ents := lt.entriesSince(5); cur != 5 || reset || ents != nil {
		t.Errorf("entriesSince(cur) = %d %v %v", cur, reset, ents)
	}
	if cur, reset, ents := lt.entriesSince(9); cur != 5 || reset || ents != nil {
		t.Errorf("entriesSince(ahead) = %d %v %v", cur, reset, ents)
	}
}

func TestLeaseLogBoundForcesReset(t *testing.T) {
	lt, _ := newTestTable(time.Second)
	lt.logCap = 4
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/d%d", i)
		lt.grantChain([]PathInode{{Path: p}})
		lt.bumpPatched(p)
	}
	// The log retains seqs 7..10; a client at 2 is past retention.
	cur, reset, ents := lt.entriesSince(2)
	if cur != 10 || !reset || ents != nil {
		t.Fatalf("entriesSince past retention = %d reset=%v %v", cur, reset, ents)
	}
	// A client inside retention still gets a diff.
	if _, reset, ents := lt.entriesSince(7); reset || len(ents) != 3 {
		t.Errorf("entriesSince(7) = reset=%v %d entries", reset, len(ents))
	}
}

func TestLeaseOverflowPublishesEverything(t *testing.T) {
	lt, now := newTestTable(time.Second)
	lt.maxGrants = 2
	lt.grantChain([]PathInode{{Path: "/a"}, {Path: "/b"}})
	// Third distinct path exceeds the bound with nothing expired: the
	// table drops per-path tracking and enters overflow mode.
	lt.grantChain([]PathInode{{Path: "/c"}})
	if pub := lt.bumpCreated("/never-granted", "/"); pub.N != 1 {
		t.Fatalf("overflow mode suppressed a mutation: %+v", pub)
	}
	if lt.Suppressed() != 0 {
		t.Errorf("suppressed = %d in overflow mode", lt.Suppressed())
	}
	// After a full horizon with no new grants, suppression resumes.
	*now += int64(lt.horizon) + 1
	if pub := lt.bumpCreated("/other", "/"); pub.N != 0 {
		t.Errorf("mutation after overflow window published %+v", pub)
	}
}

func TestLeaseOverflowSweepRecovers(t *testing.T) {
	lt, now := newTestTable(time.Second)
	lt.maxGrants = 2
	lt.grantChain([]PathInode{{Path: "/a"}, {Path: "/b"}})
	// Both records expire; a new grant sweeps them and stays tracked.
	*now += int64(lt.horizon) + 1
	lt.grantChain([]PathInode{{Path: "/c"}})
	if lt.overflowUntil > *now {
		t.Fatal("sweepable table still entered overflow mode")
	}
	if pub := lt.bumpPatched("/c"); pub.N != 1 {
		t.Errorf("patch of tracked path: %+v", pub)
	}
}

// TestServerMutationsReturnPubResult exercises the server-level plumbing:
// mutations report exactly what they published, and the stamped sequence
// only advances when a recall was published.
func TestServerMutationsReturnPubResult(t *testing.T) {
	s := newDMS(t, Options{})
	if _, pub, st := s.mkdirPub("/a", 0o755, 1, 1); st != wire.StatusOK || pub.N != 0 {
		t.Fatalf("mkdir on silent table: %v %+v", st, pub)
	}
	if s.LeaseSeq() != 0 {
		t.Fatalf("seq = %d after suppressed mkdir", s.LeaseSeq())
	}
	// A leased lookup takes a grant; the next patch publishes.
	chain, g, st := s.lookupLeased("/a", 1, 1)
	if st != wire.StatusOK || !g.Valid() {
		t.Fatalf("lookup = %v, grant %+v", st, g)
	}
	if len(chain) != 2 {
		t.Fatalf("chain length %d", len(chain))
	}
	pub, st := s.chmodPub("/a", 0o700, 1, 1)
	if st != wire.StatusOK || pub.N != 1 || pub.Last != 1 {
		t.Fatalf("chmod with live grant: %v %+v", st, pub)
	}
	if s.LeaseSeq() != 1 {
		t.Errorf("seq = %d after published chmod", s.LeaseSeq())
	}
	if s.RecallsSuppressed() != 1 {
		t.Errorf("suppressed = %d", s.RecallsSuppressed())
	}
}
