package client

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"locofs/internal/fms"
	"locofs/internal/netsim"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// TestFanOutRunsAllBranches: every branch runs exactly once and the group's
// virtual savings (sum - max) land in parSavedNS.
func TestFanOutRunsAllBranches(t *testing.T) {
	_, cfg := testCluster(t, 1)
	c := dialTest(t, cfg)
	var mu sync.Mutex
	ran := make(map[int]int)
	err := c.fanOut(opCtx{}, "test", 40, func(_ opCtx, i int) (time.Duration, error) {
		mu.Lock()
		ran[i]++
		mu.Unlock()
		return time.Millisecond, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if ran[i] != 1 {
			t.Errorf("branch %d ran %d times", i, ran[i])
		}
	}
	// 40 branches x 1ms, slowest 1ms: 39ms saved.
	if saved := time.Duration(c.parSavedNS.Load()); saved != 39*time.Millisecond {
		t.Errorf("parSaved = %v, want 39ms", saved)
	}
}

// TestFanOutFirstErrorCancels: a failing branch stops unstarted branches and
// its error is returned.
func TestFanOutFirstErrorCancels(t *testing.T) {
	_, cfg := testCluster(t, 1)
	cfg.SerialFanOut = false
	c := dialTest(t, cfg)
	boom := errors.New("boom")
	var started sync.Map
	err := c.fanOut(opCtx{}, "test", 1000, func(_ opCtx, i int) (time.Duration, error) {
		started.Store(i, true)
		if i < fanOutLimit {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	n := 0
	started.Range(func(_, _ any) bool { n++; return true })
	if n == 1000 {
		t.Error("error did not cancel any unstarted branches")
	}
}

// TestFanOutSerialMode: SerialFanOut visits branches in order, stops at the
// first error, and records no parallel savings.
func TestFanOutSerialMode(t *testing.T) {
	_, cfg := testCluster(t, 1)
	cfg.SerialFanOut = true
	c := dialTest(t, cfg)
	var order []int
	boom := errors.New("boom")
	err := c.fanOut(opCtx{}, "test", 8, func(_ opCtx, i int) (time.Duration, error) {
		order = append(order, i)
		if i == 3 {
			return time.Millisecond, boom
		}
		return time.Millisecond, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	if saved := c.parSavedNS.Load(); saved != 0 {
		t.Errorf("serial mode recorded %v parallel savings", time.Duration(saved))
	}
}

// fillDir creates dirs/files for the listing tests: width files spread
// across the FMSes plus a few subdirectories.
func fillDir(t *testing.T, c *Client, dir string, files, subdirs int) {
	t.Helper()
	if err := c.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < subdirs; i++ {
		if err := c.Mkdir(fmt.Sprintf("%s/sub-%03d", dir, i), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < files; i++ {
		if err := c.Create(fmt.Sprintf("%s/file-%05d", dir, i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReaddirParityAcrossModes: parallel and serial fan-out clients run one
// script over the client's multi-request steps — a listing wider than
// several pages, a cold resolve with a recall catch-up owed, two block
// reclaims, a truncate, an uncached resolve that carries an owed catch-up —
// and must return identical results at one fixed round-trip cost per step.
// The constants were recorded with the batch envelope, before pipelined
// groups replaced it (the last step's before the hot-entry tier went): a
// group costs the round trips the envelope did, and fanning out one server
// at a time changes which servers wait, not how many trips they take.
func TestReaddirParityAcrossModes(t *testing.T) {
	_, cfg := testCluster(t, 2)
	other := dialTest(t, cfg)
	width := 5*ReaddirPageSize + 57 // per FMS: a first page, then two more in one batch
	fillDir(t, other, "/wide", width, 5)

	serial := cfg
	serial.SerialFanOut = true
	modes := []struct {
		name  string
		cfg   Config
		trips []uint64 // per step, in script order
	}{
		{"parallel+batch", cfg, []uint64{5, 2, 4, 2, 1}},
		{"serial", serial, []uint64{5, 2, 4, 2, 1}},
	}
	// churn is another client's directory mutation: it bumps the DMS recall
	// sequence, so the next DMS response c sees leaves its cache behind.
	churn := func() {
		t.Helper()
		if err := other.Mkdir("/wide/churn", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := other.Rmdir("/wide/churn"); err != nil {
			t.Fatal(err)
		}
	}
	block := make([]byte, 3*fms.DefaultBlockSize)
	for i := range block {
		block[i] = byte(i)
	}
	// write makes path a three-block file and returns its UUID.
	write := func(c *Client, path string) uuid.UUID {
		t.Helper()
		if err := c.Create(path, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := c.Open(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(block, 0); err != nil {
			t.Fatal(err)
		}
		return f.UUID()
	}
	// blocksLeft counts u's blocks still held by the object store.
	blocksLeft := func(c *Client, u uuid.UUID) (n int) {
		t.Helper()
		for blk := uint64(0); blk < 3; blk++ {
			body := wire.NewEnc().UUID(u).U64(blk).U32(0).U32(1).Bytes()
			st, resp, _, err := c.ossFor(u, blk).Call(opCtx{}, wire.OpGetBlock, body)
			if err != nil || st != wire.StatusOK {
				t.Fatalf("get block: %v %v", st, err)
			}
			if len(wire.NewDec(resp).Blob()) > 0 {
				n++
			}
		}
		return n
	}

	var reference []any
	for _, m := range modes {
		c := dialTest(t, m.cfg)
		var got []any
		var trips []uint64
		step := func(fn func()) {
			t.Helper()
			t0 := c.Trips()
			fn()
			trips = append(trips, c.Trips()-t0)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
		}

		step(func() { // a listing of three pages from each FMS
			ents, err := c.Readdir("/wide")
			must(err)
			if len(ents) != width+5 {
				t.Fatalf("%s: %d entries, want %d", m.name, len(ents), width+5)
			}
			for i := 1; i < len(ents); i++ {
				if ents[i-1].Name >= ents[i].Name {
					t.Fatalf("%s: entries not sorted at %d: %q >= %q",
						m.name, i, ents[i-1].Name, ents[i].Name)
				}
			}
			got = append(got, ents)
		})
		churn()
		step(func() { // cold resolves: the second one owes a recall catch-up
			for _, p := range []string{"/wide/sub-000", "/wide/sub-001"} {
				a, err := c.StatDir(p)
				must(err)
				got = append(got, *a)
			}
			d := c.CacheDetail()
			got = append(got, d.AppliedSeq == d.MaxSeq)
		})
		u1, u2 := write(c, "/wide/sub-000/a"), write(c, "/wide/sub-000/b")
		step(func() { // two removes, each reclaiming one file's blocks
			must(c.Remove("/wide/sub-000/a"))
			must(c.Remove("/wide/sub-000/b"))
		})
		got = append(got, blocksLeft(c, u1), blocksLeft(c, u2))
		u1 = write(c, "/wide/sub-000/a")
		step(func() { // truncate: the size patch, then the trimmed blocks
			must(c.Truncate("/wide/sub-000/a", fms.DefaultBlockSize))
		})
		a, err := c.StatFile("/wide/sub-000/a")
		must(err)
		got = append(got, a.Size, blocksLeft(c, u1))
		must(c.Remove("/wide/sub-000/a"))
		churn()
		_, err = c.StatDir("/wide/sub-002") // observes the churn: c is behind
		must(err)
		step(func() { // an uncached resolve: the lookup plus the catch-up
			_, err := c.StatDir("/wide/sub-003")
			must(err)
			d := c.CacheDetail()
			got = append(got, d.AppliedSeq == d.MaxSeq)
		})

		if !reflect.DeepEqual(trips, m.trips) {
			t.Errorf("%s: trips per step = %v, want %v", m.name, trips, m.trips)
		}
		if reference == nil {
			reference = got
		} else if !reflect.DeepEqual(got, reference) {
			t.Errorf("%s: results differ from %s's:\n got %v\nwant %v",
				m.name, modes[0].name, got[1:], reference[1:])
		}
	}
}

// TestReaddirBatchedPagingSavesTrips: a cold listing of six pages on one FMS
// costs 4 round trips, not one per page: the DMS lookup with the first
// subdirectory page, the first file page, then the remaining five pages
// sized from the server's remaining count, pageDepth to a trip. 4 is what
// the batch envelope cost before pipelined groups replaced it (page-per-RPC
// cost 8).
func TestReaddirBatchedPagingSavesTrips(t *testing.T) {
	_, cfg := testCluster(t, 1)
	seed := dialTest(t, cfg)
	pages := 6
	fillDir(t, seed, "/paged", pages*ReaddirPageSize, 0)

	c := dialTest(t, cfg)
	t0 := c.Trips()
	if _, err := c.Readdir("/paged"); err != nil {
		t.Fatal(err)
	}
	if trips := c.Trips() - t0; trips != 4 {
		t.Errorf("six-page readdir cost %d trips, want 4", trips)
	}
}

// TestRmdirParallelProbes: rmdir succeeds on an empty dir and refuses a
// non-empty one with ENOTEMPTY under parallel probing.
func TestRmdirParallelProbes(t *testing.T) {
	_, cfg := testCluster(t, 4)
	c := dialTest(t, cfg)
	fillDir(t, c, "/busy", 12, 0)
	if err := c.Rmdir("/busy"); wire.StatusOf(err) != wire.StatusNotEmpty {
		t.Errorf("rmdir non-empty = %v, want ENOTEMPTY", err)
	}
	if err := c.Mkdir("/hollow", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir("/hollow"); err != nil {
		t.Errorf("rmdir empty = %v", err)
	}
}

// TestParallelCostBelowSerial: the virtual-time model must show the fan-out
// win — the same rmdir probe sweep and readdir cost less on a parallel
// client than a serial one (acceptance criterion's mechanism).
func TestParallelCostBelowSerial(t *testing.T) {
	_, cfg := testCluster(t, 8)
	// A non-trivial modeled link so per-call virtual time is nonzero.
	cfg.Link = netsim.Paper1GbE

	seed := dialTest(t, cfg)
	fillDir(t, seed, "/d", 64, 3)

	serialCfg := cfg
	serialCfg.SerialFanOut = true
	serial := dialTest(t, serialCfg)
	par := dialTest(t, cfg)

	measure := func(c *Client, op func() error) time.Duration {
		before := c.Cost()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return c.Cost() - before
	}
	serialReaddir := measure(serial, func() error { _, err := serial.Readdir("/d"); return err })
	parReaddir := measure(par, func() error { _, err := par.Readdir("/d"); return err })
	if parReaddir >= serialReaddir {
		t.Errorf("parallel readdir virt %v >= serial %v", parReaddir, serialReaddir)
	}

	serialRmdir := measure(serial, func() error {
		if err := serial.Mkdir("/gone-s", 0o755); err != nil {
			return err
		}
		return serial.Rmdir("/gone-s")
	})
	parRmdir := measure(par, func() error {
		if err := par.Mkdir("/gone-p", 0o755); err != nil {
			return err
		}
		return par.Rmdir("/gone-p")
	})
	if parRmdir >= serialRmdir {
		t.Errorf("parallel rmdir virt %v >= serial %v", parRmdir, serialRmdir)
	}
}

// TestConcurrentFanOutRace drives concurrent Readdir/Rmdir against Create
// and Remove mutators — the go test -race workload for the fan-out paths.
func TestConcurrentFanOutRace(t *testing.T) {
	_, cfg := testCluster(t, 4)
	seed := dialTest(t, cfg)
	fillDir(t, seed, "/race", 40, 2)

	c := dialTest(t, cfg)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch w % 4 {
				case 0:
					c.Readdir("/race")
				case 1:
					c.Rmdir("/race") // always ENOTEMPTY; exercises probes
				case 2:
					p := fmt.Sprintf("/race/tmp-%d-%d", w, i)
					c.Create(p, 0o644)
					c.Remove(p)
				case 3:
					c.StatDir("/race")
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
