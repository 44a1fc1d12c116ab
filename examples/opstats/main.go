// opstats makes the paper's central claim observable: in LocoFS every
// important metadata operation costs one or two network round trips. It
// runs each operation against a live cluster, counts the exact round trips
// via the client's trip counter, and prints the per-operation budget next
// to the paper's Table 1 access pattern — then dumps the per-RPC latency
// breakdown recorded by the client's telemetry histograms.
package main

import (
	"fmt"
	"log"
	"time"

	"locofs"
)

func main() {
	const fmsCount = 4
	cluster, err := locofs.Start(locofs.Options{FMSCount: fmsCount, Link: locofs.Paper1GbE})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fs, err := cluster.NewClient(locofs.ClientConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	// Fixture so every probed op succeeds, and so the directory cache is
	// warm (the steady state the paper's LocoFS-C measures).
	must(fs.Mkdir("/app", 0o755))
	must(fs.Create("/app/warm", 0o644))

	type probe struct {
		op   string
		note string
		run  func() error
	}
	probes := []probe{
		{"mkdir", "1 RPC to the DMS (ancestor ACL check is server-local)", func() error {
			return fs.Mkdir("/app/sub", 0o755)
		}},
		{"create", "1 RPC to the owning FMS (parent d-inode cached)", func() error {
			return fs.Create("/app/data.bin", 0o644)
		}},
		{"file-stat", "1 RPC to the owning FMS", func() error {
			_, err := fs.StatFile("/app/data.bin")
			return err
		}},
		{"dir-stat", "0 RPCs on a cache hit, 1 on a miss", func() error {
			_, err := fs.StatDir("/app")
			return err
		}},
		{"chmod", "1 RPC; a 12-byte in-place patch of the access part", func() error {
			return fs.Chmod("/app/data.bin", 0o600)
		}},
		{"utimens", "1 RPC; patches the content part only", func() error {
			return fs.Utimens("/app/data.bin", 1, 2)
		}},
		{"truncate", "1 RPC to the FMS (+ 1 to each object store owning a trimmed block)", func() error {
			return fs.Truncate("/app/data.bin", 0)
		}},
		{"readdir", fmt.Sprintf("1 DMS + %d FMS RPCs (dirents live with their owners)", fmsCount), func() error {
			_, err := fs.Readdir("/app")
			return err
		}},
		{"rename-file", "3 RPCs: read meta, insert at new key, delete old", func() error {
			return fs.RenameFile("/app/data.bin", "/app/data2.bin")
		}},
		{"rename-dir", "1 RPC: a prefix move inside the DMS's B+ tree", func() error {
			_, err := fs.RenameDir("/app/sub", "/app/sub2")
			return err
		}},
		{"remove", "1 FMS RPC (+ 1 to each object store owning a block; the file is empty)", func() error {
			return fs.Remove("/app/data2.bin")
		}},
		{"rmdir", fmt.Sprintf("%d FMS emptiness probes + 1 DMS RPC", fmsCount), func() error {
			return fs.Rmdir("/app/sub2")
		}},
	}

	fmt.Printf("%-12s %6s  %s\n", "operation", "trips", "why")
	fmt.Printf("%-12s %6s  %s\n", "---------", "-----", "---")
	for _, p := range probes {
		before := fs.Trips()
		if err := p.run(); err != nil {
			log.Fatalf("%s: %v", p.op, err)
		}
		fmt.Printf("%-12s %6d  %s\n", p.op, fs.Trips()-before, p.note)
	}
	fmt.Println("\nEvery hot-path operation touches one or two servers — the")
	fmt.Println("loosely-coupled design the paper builds (§3.1).")

	// Per-RPC latency breakdown from the client's telemetry histograms:
	// every round trip above was recorded per wire op (measured wall-clock
	// over the in-process fabric — what a deployment's /metrics exposes).
	fmt.Println("\nPer-RPC round-trip latency (client telemetry):")
	fmt.Printf("%-16s %6s %9s %9s %9s %9s\n", "rpc op", "count", "mean", "p50", "p99", "max")
	us := func(d time.Duration) string {
		return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1e3)
	}
	for _, r := range fs.Metrics().Snapshot().OpTable("locofs_client_rtt_seconds") {
		fmt.Printf("%-16s %6d %9s %9s %9s %9s\n",
			r.Op, r.Count, us(r.Mean), us(r.P50), us(r.P99), us(r.Max))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
