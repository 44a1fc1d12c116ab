package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"locofs/internal/client"
)

// totalBlocks sums the stored blocks over every object store server.
func totalBlocks(c *Cluster) int {
	n := 0
	for _, o := range c.OSS {
		n += o.BlockCount()
	}
	return n
}

// writeFile creates path and writes data at off through a fresh handle.
func writeFile(t *testing.T, cl *client.Client, path string, data []byte, off uint64) {
	t.Helper()
	if err := cl.Create(path, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := cl.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
}

// reclaimVia frees every block of path, by removing it or by truncating it
// to zero.
func reclaimVia(cl *client.Client, op, path string) error {
	if op == "remove" {
		return cl.Remove(path)
	}
	return cl.Truncate(path, 0)
}

// TestReclaimDenseAcrossOSSes: a file's blocks spread over the object store
// servers by hash, so no server holds a dense run of them. Remove and
// Truncate must still reclaim every block.
func TestReclaimDenseAcrossOSSes(t *testing.T) {
	for _, op := range []string{"remove", "truncate"} {
		t.Run(op, func(t *testing.T) {
			const bs, files, blocks = 512, 20, 256
			c := startCluster(t, Options{FMSCount: 2, OSSCount: 3, BlockSize: bs})
			cl := newClient(t, c, ClientConfig{})
			cl.Mkdir("/d", 0o755)
			data := bytes.Repeat([]byte("z"), bs*blocks)
			for i := 0; i < files; i++ {
				writeFile(t, cl, fmt.Sprintf("/d/f%d", i), data, 0)
			}
			if got := totalBlocks(c); got != files*blocks {
				t.Fatalf("stored %d blocks, want %d", got, files*blocks)
			}
			for i := 0; i < files; i++ {
				if err := reclaimVia(cl, op, fmt.Sprintf("/d/f%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if got := totalBlocks(c); got != 0 {
				t.Errorf("%d of %d blocks left after %s", got, files*blocks, op)
			}
		})
	}
}

// TestReclaimSparseFile: a write far past the start of an empty file leaves
// a hole of a hundred blocks; the one block beyond it is reclaimed too.
func TestReclaimSparseFile(t *testing.T) {
	for _, op := range []string{"remove", "truncate"} {
		t.Run(op, func(t *testing.T) {
			c := startCluster(t, Options{FMSCount: 1, OSSCount: 1})
			cl := newClient(t, c, ClientConfig{})
			cl.Mkdir("/s", 0o755)
			writeFile(t, cl, "/s/f", []byte("tail"), 100*4096)
			if got := totalBlocks(c); got != 1 {
				t.Fatalf("stored %d blocks, want 1", got)
			}
			if err := reclaimVia(cl, op, "/s/f"); err != nil {
				t.Fatal(err)
			}
			if got := totalBlocks(c); got != 0 {
				t.Errorf("block at 100 survived %s (%d left)", op, got)
			}
		})
	}
}

// TestTruncateKeepsCoveredBlocks: trimming to a mid-file size deletes the
// blocks past the new end and keeps every block below it.
func TestTruncateKeepsCoveredBlocks(t *testing.T) {
	const bs = 512
	c := startCluster(t, Options{FMSCount: 1, OSSCount: 3, BlockSize: bs})
	cl := newClient(t, c, ClientConfig{})
	cl.Mkdir("/t", 0o755)
	writeFile(t, cl, "/t/f", bytes.Repeat([]byte("q"), 10*bs), 0)
	if err := cl.Truncate("/t/f", 4*bs+1); err != nil { // covers blocks 0..4
		t.Fatal(err)
	}
	if got := totalBlocks(c); got != 5 {
		t.Errorf("%d blocks after truncating to 4 blocks + 1 byte, want 5", got)
	}
}

// TestRemoveTrips: the FMS's reply names the file's extent, so removing an
// empty file reaches no object store server, and a one-block file's
// remove reaches the one server that holds the block. In both metadata
// layouts: the coupled inode reports its size the same way.
func TestRemoveTrips(t *testing.T) {
	for _, coupled := range []bool{false, true} {
		for _, oss := range []int{1, 3} {
			t.Run(fmt.Sprintf("coupled=%v/oss=%d", coupled, oss), func(t *testing.T) {
				c := startCluster(t, Options{FMSCount: 2, OSSCount: oss, CoupledFileMetadata: coupled})
				cl := newClient(t, c, ClientConfig{})
				cl.Mkdir("/r", 0o755)
				if err := cl.Create("/r/empty", 0o644); err != nil {
					t.Fatal(err)
				}
				t0 := cl.Trips()
				if err := cl.Remove("/r/empty"); err != nil {
					t.Fatal(err)
				}
				if got := cl.Trips() - t0; got != 1 {
					t.Errorf("empty-file remove took %d trips, want 1", got)
				}

				writeFile(t, cl, "/r/one", []byte("data"), 0)
				if got := totalBlocks(c); got != 1 {
					t.Fatalf("stored %d blocks, want 1", got)
				}
				t0 = cl.Trips()
				if err := cl.Remove("/r/one"); err != nil {
					t.Fatal(err)
				}
				if got := cl.Trips() - t0; got != 2 {
					t.Errorf("one-block remove took %d trips, want 2 (FMS + one OSS)", got)
				}
				if got := totalBlocks(c); got != 0 {
					t.Errorf("%d blocks left after remove", got)
				}
			})
		}
	}
}

// TestConcurrentReclaim: writers on three object store servers create,
// write (dense and sparse), truncate and remove their own files at once;
// every acknowledged block is reclaimed.
func TestConcurrentReclaim(t *testing.T) {
	const bs, writers, rounds = 512, 4, 12
	c := startCluster(t, Options{FMSCount: 2, OSSCount: 3, BlockSize: bs})
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		cl := newClient(t, c, ClientConfig{})
		dir := fmt.Sprintf("/w%d", w)
		if err := cl.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, cl *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				p := fmt.Sprintf("%s/f%d", dir, r)
				if err := cl.Create(p, 0o644); err != nil {
					errs <- err
					return
				}
				f, err := cl.Open(p, true)
				if err != nil {
					errs <- err
					return
				}
				for k := 0; k < 3; k++ {
					off := uint64(rng.Intn(64 * bs))
					if _, err := f.WriteAt(make([]byte, 1+rng.Intn(4*bs)), off); err != nil {
						errs <- err
						return
					}
				}
				f.Close()
				if err := cl.Truncate(p, uint64(rng.Intn(8*bs))); err != nil {
					errs <- err
					return
				}
				if err := cl.Remove(p); err != nil {
					errs <- err
					return
				}
			}
		}(w, cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := totalBlocks(c); got != 0 {
		t.Errorf("%d blocks left after every file was removed", got)
	}
}
