package core

import (
	"fmt"
	"testing"

	"locofs/internal/wire"
)

// The end-to-end lease-coherence guarantee (DESIGN.md §14): once a client
// has observed the recall sequence of a mutation — stamped on every DMS
// response header — it never again serves cached state that mutation
// invalidated. These tests drive two clients against one cluster: a reader
// that caches, a writer that mutates, and an unrelated DMS round trip in
// between as the observation point.

func TestCoherenceNoStaleAttrAfterObservedBump(t *testing.T) {
	cl, err := Start(Options{FMSCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reader, err := cl.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	writer, err := cl.NewClient(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	if err := writer.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writer.Mkdir("/obs", 0o755); err != nil {
		t.Fatal(err)
	}
	a, err := reader.StatDir("/d")
	if err != nil || a.Mode&0o777 != 0o755 {
		t.Fatalf("initial stat: %+v, %v", a, err)
	}
	// Cached: a repeat stat costs zero trips.
	trips := reader.Trips()
	if _, err := reader.StatDir("/d"); err != nil {
		t.Fatal(err)
	}
	if reader.Trips() != trips {
		t.Fatal("repeat stat was not served from cache")
	}

	// The writer changes the mode; the reader's grant is live, so the DMS
	// publishes a recall.
	if err := writer.ChmodDir("/d", 0o700); err != nil {
		t.Fatal(err)
	}
	// The reader observes the new sequence on an unrelated round trip.
	if _, err := reader.StatDir("/obs"); err != nil {
		t.Fatal(err)
	}
	// Acceptance: the next stat must see the new mode, never the cached old
	// one. (The stale entry degrades to a miss; the re-lookup piggybacks
	// the recall fetch.)
	a, err = reader.StatDir("/d")
	if err != nil || a.Mode&0o777 != 0o700 {
		t.Fatalf("stat after observed chmod = %+v, %v; stale read", a, err)
	}
	d := reader.CacheDetail()
	if d.StaleMisses == 0 {
		t.Error("no stale miss recorded — the freshness gate never fired")
	}
	if d.AppliedSeq != d.MaxSeq {
		t.Errorf("reader not caught up: applied %d, observed %d", d.AppliedSeq, d.MaxSeq)
	}
}

func TestCoherenceNegativeEntryDroppedOnCreate(t *testing.T) {
	cl, err := Start(Options{FMSCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reader, _ := cl.NewClient(ClientConfig{})
	defer reader.Close()
	writer, _ := cl.NewClient(ClientConfig{})
	defer writer.Close()

	if err := writer.Mkdir("/p", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writer.Mkdir("/obs", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.StatDir("/p/x"); wire.StatusOf(err) != wire.StatusNotFound {
		t.Fatalf("want ENOENT, got %v", err)
	}
	// Negative entry: the repeat probe is free.
	trips := reader.Trips()
	if _, err := reader.StatDir("/p/x"); wire.StatusOf(err) != wire.StatusNotFound {
		t.Fatalf("want cached ENOENT, got %v", err)
	}
	if reader.Trips() != trips {
		t.Fatal("repeat ENOENT was not served from cache")
	}

	if err := writer.Mkdir("/p/x", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.StatDir("/obs"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.StatDir("/p/x"); err != nil {
		t.Fatalf("stale ENOENT served after observed create: %v", err)
	}
}

func TestCoherenceListingDroppedOnCreate(t *testing.T) {
	cl, err := Start(Options{FMSCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reader, _ := cl.NewClient(ClientConfig{})
	defer reader.Close()
	writer, _ := cl.NewClient(ClientConfig{})
	defer writer.Close()

	for _, p := range []string{"/p", "/p/a", "/obs"} {
		if err := writer.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := reader.Readdir("/p")
	if err != nil || len(ents) != 1 {
		t.Fatalf("readdir = %v, %v", ents, err)
	}
	if err := writer.Mkdir("/p/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.StatDir("/obs"); err != nil {
		t.Fatal(err)
	}
	ents, err = reader.Readdir("/p")
	if err != nil || len(ents) != 2 {
		t.Fatalf("readdir after observed create = %d entries, %v; stale listing", len(ents), err)
	}
}

// TestCoherenceRenameVisibility: a rename publishes unconditionally; a
// reader that observed it must resolve the new path and fail the old one.
func TestCoherenceRenameVisibility(t *testing.T) {
	cl, err := Start(Options{FMSCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reader, _ := cl.NewClient(ClientConfig{})
	defer reader.Close()
	writer, _ := cl.NewClient(ClientConfig{})
	defer writer.Close()

	if err := writer.Mkdir("/old", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writer.Mkdir("/obs", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.StatDir("/old"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.RenameDir("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.StatDir("/obs"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.StatDir("/new"); err != nil {
		t.Fatalf("renamed dir not visible: %v", err)
	}
	if _, err := reader.StatDir("/old"); wire.StatusOf(err) != wire.StatusNotFound {
		t.Fatalf("old name still resolves after observed rename: %v", err)
	}
}

// TestCoherenceSuppressionKeepsSeqStill: mutations of paths no client holds
// grants for publish nothing — a churn-heavy writer does not disturb the
// sequence other clients compare against.
func TestCoherenceSuppressionKeepsSeqStill(t *testing.T) {
	cl, err := Start(Options{FMSCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reader, _ := cl.NewClient(ClientConfig{})
	defer reader.Close()
	writer, _ := cl.NewClient(ClientConfig{})
	defer writer.Close()

	if err := writer.Mkdir("/hot", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.StatDir("/hot"); err != nil {
		t.Fatal(err)
	}
	before := reader.CacheDetail().MaxSeq
	// Churn on paths nobody ever looked up: all suppressed.
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/churn%d", i)
		if err := writer.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writer.Rmdir(p); err != nil {
			t.Fatal(err)
		}
	}
	// The reader keeps hitting its cache: the stamped sequence on any new
	// response would exceed maxSeq if the churn had published.
	if _, err := reader.StatDir("/hot"); err != nil {
		t.Fatal(err)
	}
	trips := reader.Trips()
	if _, err := reader.StatDir("/hot"); err != nil {
		t.Fatal(err)
	}
	if reader.Trips() != trips {
		t.Error("suppressed churn invalidated an unrelated cached entry")
	}
	if after := reader.CacheDetail().MaxSeq; after != before {
		t.Errorf("recall seq moved %d -> %d on fully-suppressed churn", before, after)
	}
}

// TestTTLOnlyModeStillCaches: the legacy mode keeps its paper semantics —
// entries served for the TTL with no coherence machinery.
func TestTTLOnlyModeStillCaches(t *testing.T) {
	cl, err := Start(Options{FMSCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, _ := cl.NewClient(ClientConfig{DisableLeaseCoherence: true})
	defer c.Close()
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StatDir("/d"); err != nil {
		t.Fatal(err)
	}
	trips := c.Trips()
	if _, err := c.StatDir("/d"); err != nil {
		t.Fatal(err)
	}
	if c.Trips() != trips {
		t.Error("TTL cache did not serve the repeat stat")
	}
	d := c.CacheDetail()
	if d.MaxSeq != 0 || d.AppliedSeq != 0 {
		t.Errorf("TTL-only client tracked coherence watermarks: %+v", d)
	}
	if d.Negatives != 0 || d.Listings != 0 {
		t.Errorf("TTL-only client cached negatives/listings: %+v", d)
	}
}

// TestCoherenceAcrossPromotion: a promoted DMS leader holds none of its
// predecessor's lease grants and would publish no recall for them, so its
// first response must put every client's entries from that partition behind
// the observed sequence. A reader caches a directory, the leader fails over,
// a writer changes the directory's mode at the new leader, and after an
// unrelated round trip to that partition the reader must see the new mode,
// not its cached one.
func TestCoherenceAcrossPromotion(t *testing.T) {
	for _, tc := range []struct {
		parts, pid int
		dir        string
	}{{1, 0, ""}, {2, 1, parityCut}} {
		t.Run(fmt.Sprintf("%dx2", tc.parts), func(t *testing.T) {
			c := startTopology(t, tc.parts, 2)
			reader := newClient(t, c, ClientConfig{})
			writer := newClient(t, c, ClientConfig{})
			if tc.dir != "" {
				if err := writer.Mkdir(tc.dir, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			d := tc.dir + "/d"
			if err := writer.Mkdir(d, 0o755); err != nil {
				t.Fatal(err)
			}
			if a, err := reader.StatDir(d); err != nil || a.Mode&0o777 != 0o755 {
				t.Fatalf("initial stat: %+v, %v", a, err)
			}
			if err := c.FailoverDMS(tc.pid); err != nil {
				t.Fatal(err)
			}
			if err := writer.ChmodDir(d, 0o700); err != nil {
				t.Fatal(err)
			}
			if err := reader.Mkdir(tc.dir+"/obs3", 0o755); err != nil {
				t.Fatal(err)
			}
			if a, err := reader.StatDir(d); err != nil || a.Mode&0o777 != 0o700 {
				t.Fatalf("stat after chmod at the promoted leader = %+v, %v; stale read", a, err)
			}
		})
	}
}
