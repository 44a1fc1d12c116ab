package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"locofs/internal/chash"
	"locofs/internal/fms"
	"locofs/internal/wire"
)

// TestElasticAddRemoveFMS is the end-to-end elasticity check: with a
// workload running, grow the FMS set 4→5 and shrink it 5→4. Exactly the
// keys the ring moves migrate (~1/n on the grow), no existing file ever
// reads as missing (the availability criterion for the migration window),
// and the namespace is identical before and after.
func TestElasticAddRemoveFMS(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 4})
	cl := newClient(t, c, ClientConfig{})

	const n = 600
	if err := cl.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%04d", i)
		if err := cl.Create("/d/"+names[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The placement is deterministic given the directory UUID, so the test
	// can compute exactly which files a 4→5 grow must move.
	dirAttr, err := cl.StatDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	oldRing := chash.NewRing(0, 0, 1, 2, 3)
	newRing := chash.NewRing(0, 0, 1, 2, 3, 4)
	expectMoved := 0
	for _, name := range names {
		key := fms.FileKey(dirAttr.UUID, name)
		if oldRing.Locate(key) != newRing.Locate(key) {
			expectMoved++
		}
	}
	if expectMoved == 0 || expectMoved > n/2 {
		t.Fatalf("degenerate placement: %d/%d keys move", expectMoved, n)
	}

	// Background workload: stat existing files continuously. Any ENOENT is
	// an availability violation — every one of these files exists for the
	// whole test.
	stop := make(chan struct{})
	var ops, violations atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wcl := newClient(t, c, ClientConfig{})
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[(i*7+w*131)%n]
				if _, err := wcl.StatFile("/d/" + name); err != nil {
					if wire.StatusOf(err) == wire.StatusNotFound {
						violations.Add(1)
						t.Errorf("worker %d: ENOENT for existing file %s", w, name)
					}
				} else {
					ops.Add(1)
				}
			}
		}(w)
	}

	// Grow 4→5.
	rep, err := c.AddFMS()
	if err != nil {
		t.Fatalf("AddFMS: %v", err)
	}
	if rep.Total != n {
		t.Errorf("grow scanned %d files, want %d", rep.Total, n)
	}
	if rep.Moved != expectMoved {
		t.Errorf("grow moved %d files, want exactly %d", rep.Moved, expectMoved)
	}
	frac := float64(rep.Moved) / float64(rep.Total)
	if frac < 0.08 || frac > 0.40 {
		t.Errorf("grow moved fraction %.3f implausible for 1/5 ideal", frac)
	}
	if rep.FromVer != 1 || rep.ToVer != 3 || len(rep.Unreached) != 0 {
		t.Errorf("grow map versions %d->%d (unreached %v), want 1->3", rep.FromVer, rep.ToVer, rep.Unreached)
	}

	// Every file reachable after the grow, from the old client and a fresh
	// one that dials the grown cluster directly.
	fresh := newClient(t, c, ClientConfig{})
	if got := len(fresh.Map().FMS); got != 5 {
		t.Errorf("fresh client sees %d FMS, want 5", got)
	}
	for _, name := range names {
		if _, err := cl.StatFile("/d/" + name); err != nil {
			t.Fatalf("after grow, old client lost %s: %v", name, err)
		}
		if _, err := fresh.StatFile("/d/" + name); err != nil {
			t.Fatalf("after grow, fresh client lost %s: %v", name, err)
		}
	}
	if ents, err := fresh.Readdir("/d"); err != nil || len(ents) != n {
		t.Errorf("after grow, readdir = %d entries err=%v, want %d", len(ents), err, n)
	}

	// Shrink 5→4: exactly the files that just landed on server 4 drain back.
	rep2, err := c.RemoveFMS()
	if err != nil {
		t.Fatalf("RemoveFMS: %v", err)
	}
	if rep2.Moved != expectMoved {
		t.Errorf("shrink moved %d files, want exactly %d", rep2.Moved, expectMoved)
	}
	if rep2.Total != n {
		t.Errorf("shrink scanned %d files, want %d", rep2.Total, n)
	}

	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d availability violations (ENOENT for existing files) during migration", v)
	}
	if ops.Load() == 0 {
		t.Error("background workload performed no successful operations")
	}

	// The namespace is exactly what it was.
	for _, name := range names {
		if _, err := cl.StatFile("/d/" + name); err != nil {
			t.Fatalf("after shrink, lost %s: %v", name, err)
		}
	}
	if ents, err := cl.Readdir("/d"); err != nil || len(ents) != n {
		t.Errorf("after shrink, readdir = %d entries err=%v, want %d", len(ents), err, n)
	}
	if got := c.MapVer(); got != 5 {
		t.Errorf("cluster map version = %d, want 5", got)
	}
}

// TestElasticMutationsDuringWindow: mutations issued while keys are
// migrating land on the surviving copy — a chmod racing the window is
// never lost, and creates/removes during the window behave normally.
func TestElasticMutationsDuringWindow(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 3})
	cl := newClient(t, c, ClientConfig{})
	if err := cl.Mkdir("/m", 0o755); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := cl.Create(fmt.Sprintf("/m/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Mutate concurrently with the grow.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	mcl := newClient(t, c, ClientConfig{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := mcl.Chmod(fmt.Sprintf("/m/f%03d", i%n), 0o600); err != nil {
				t.Errorf("chmod during window: %v", err)
				return
			}
		}
	}()

	if _, err := c.AddFMS(); err != nil {
		t.Fatalf("AddFMS: %v", err)
	}
	close(stop)
	wg.Wait()

	// Post-window creates and removes route to the new owners.
	if err := cl.Create("/m/new", 0o644); err != nil {
		t.Fatalf("create after grow: %v", err)
	}
	if err := cl.Remove("/m/new"); err != nil {
		t.Fatalf("remove after grow: %v", err)
	}
	if _, err := cl.StatFile("/m/new"); wire.StatusOf(err) != wire.StatusNotFound {
		t.Errorf("removed file stat = %v, want ENOENT", err)
	}
	// Every chmod that reported success must be durable: no file may have
	// reverted to its create mode after migration settles.
	for i := 0; i < n; i++ {
		a, err := cl.StatFile(fmt.Sprintf("/m/f%03d", i))
		if err != nil {
			t.Fatalf("lost /m/f%03d: %v", i, err)
		}
		if m := a.Mode & 0o777; m != 0o600 && m != 0o644 {
			t.Errorf("/m/f%03d mode = %o, want 600 or 644", i, m)
		}
	}
}

// TestElasticDrainMovesEachFileOnce: a coordinator sends each destination's
// installs, and then the source's deletes, as pipelined groups — one round
// trip each, not one per file — and every file must be readable afterwards,
// held by exactly one server, the moved ones by the new one.
func TestElasticDrainMovesEachFileOnce(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 2})
	cl := newClient(t, c, ClientConfig{})
	if err := cl.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := cl.Create(fmt.Sprintf("/d/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Cluster.AddFMS by hand, so the coordinator can be this test's client.
	m := wire.Member{ID: 2, Addr: "fms-2"}
	grown, err := c.startFMS(m)
	if err != nil {
		t.Fatal(err)
	}
	admin := newClient(t, c, ClientConfig{})
	before := admin.Trips()
	rep, err := admin.AddFMS(m.ID, m.Addr)
	if err != nil {
		t.Fatalf("AddFMS: %v", err)
	}
	if rep.Total != n || rep.Moved == 0 || rep.Moved > n/2 {
		t.Fatalf("drain moved %d of %d files", rep.Moved, rep.Total)
	}
	if trips := int(admin.Trips() - before); trips >= rep.Moved {
		t.Errorf("drain took %d round trips for %d files, want the installs and deletes grouped", trips, rep.Moved)
	}
	if got := grown.FileCount(); got != rep.Moved {
		t.Errorf("new server holds %d files, want the %d moved", got, rep.Moved)
	}
	if got := c.FMS[0].FileCount() + c.FMS[1].FileCount() + grown.FileCount(); got != n {
		t.Errorf("servers hold %d files between them, want %d (a source copy not retired?)", got, n)
	}
	fresh := newClient(t, c, ClientConfig{})
	for i := 0; i < n; i++ {
		if _, err := fresh.StatFile(fmt.Sprintf("/d/f%03d", i)); err != nil {
			t.Fatalf("after drain, lost /d/f%03d: %v", i, err)
		}
	}
}
