package main

import (
	"testing"

	"locofs"
)

// testSizes is -quick's scale: small enough that every workload's set-up
// and two rounds run in-process in well under a second.
func testSizes() sizes { return defaultSizes(2).scaled(quickDiv) }

func streamOf(t *testing.T, name string, seed uint64, rounds int) string {
	t.Helper()
	wl, err := newWorkload(name, seed, testSizes())
	if err != nil {
		t.Fatal(err)
	}
	h := newStreamHash()
	h.add(wl.Setup())
	for i := 0; i < rounds; i++ {
		h.add(wl.Round())
	}
	return h.String()
}

// The same seed gives a byte-identical op stream; another seed another one.
func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := streamOf(t, name, 7, 3), streamOf(t, name, 7, 3), streamOf(t, name, 8, 3)
		if a != b {
			t.Errorf("%s: seed 7 gave streams %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %s", name, a)
		}
	}
	if _, err := newWorkload("nope", 1, testSizes()); err == nil {
		t.Error("unknown workload accepted")
	}
}

// file_mix's live sets revert to the target: however many rounds run, no
// directory outgrows twice the target and the mean stays near it.
func TestFileMixStationary(t *testing.T) {
	sz := testSizes()
	w := newFileMix(3, sz)
	w.Setup()
	mean := func() float64 {
		n, dirs := 0, 0
		for _, lane := range w.lanes {
			for _, d := range lane {
				if len(d.files) > 2*sz.MixTarget || len(d.subs) > 4 {
					t.Fatalf("%s holds %d files and %d subdirectories", d.path, len(d.files), len(d.subs))
				}
				n += len(d.files)
				dirs++
			}
		}
		return float64(n) / float64(dirs)
	}
	counts := make([]int, numKinds)
	for r := 0; r < 60; r++ {
		for _, ph := range w.Round() {
			for _, lane := range ph.Lanes {
				for _, o := range lane {
					counts[o.Kind]++
				}
			}
		}
		if m := mean(); m < 0.7*float64(sz.MixTarget) || m > 1.3*float64(sz.MixTarget) {
			t.Fatalf("round %d: mean live set %.2f, target %d", r, m, sz.MixTarget)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	// The mix: stat 45, create 20, remove 20, chmod 5, readdir 4, mkdir 3, rmdir 3.
	for k, want := range map[opKind]float64{kStat: 45, kCreate: 20, kRemove: 20, kChmod: 5, kReaddir: 4, kMkdir: 3, kRmdir: 3} {
		if got := 100 * float64(counts[k]) / float64(total); got < want-1.5 || got > want+1.5 {
			t.Errorf("%s is %.1f%% of the mix, want %v%%", classNames[classOf(k)], got, want)
		}
	}
}

func TestClassOf(t *testing.T) {
	want := []string{"create", "stat", "remove", "chmod", "readdir", "mkdir", "rmdir", "statdir", "chmod", "rename_local", "rename_cross"}
	for k := opKind(0); k < numKinds; k++ {
		if got := classNames[classOf(k)]; got != want[k] {
			t.Errorf("kind %d is class %q, want %q", k, got, want[k])
		}
	}
}

// Every generated op must get the result the generator's model predicts
// from the real system. The oracle is an in-process cluster — no daemons —
// on each workload's own topology.
func TestModelAgreesWithCluster(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name, 11, testSizes())
			if err != nil {
				t.Fatal(err)
			}
			opts := locofs.Options{FMSCount: fmsCount, CheckPermissions: true}
			if wl.Spec().Topo == topoSharded {
				opts.DMSPartitions, opts.DMSCuts, opts.DMSReplicas = dmsParts, []string{shardCutDir}, dmsReplicas
			}
			cl, err := locofs.Start(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			fs, err := cl.NewClient(locofs.ClientConfig{CacheEntries: wl.Spec().CacheEntries})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			log := newOpLog()
			run := func(phases []phase) {
				for _, ph := range phases {
					for _, ops := range ph.Lanes {
						log.run(fs, ops, nil)
					}
					if log.failed > 0 {
						t.Fatalf("phase %s: %d ops failed, first: %v", ph.Name, log.failed, log.firstErr)
					}
					if ph.Check != nil {
						if err := ph.Check(fs); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			run(wl.Setup())
			run(wl.Round())
			run(wl.Round())
			if err := wl.Verify(fs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The namespace check must notice what the model does not know about.
func TestVerifyCatchesMismatch(t *testing.T) {
	cl, err := locofs.Start(locofs.Options{FMSCount: fmsCount})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fs, err := cl.NewClient(locofs.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	w := newWideDir(1, testSizes())
	log := newOpLog()
	for _, ph := range w.Setup() {
		log.run(fs, ph.Lanes[0], nil)
	}
	if err := w.Verify(fs); err != nil {
		t.Fatalf("empty directory: %v", err)
	}
	if err := fs.Create("/w/stray", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(fs); err == nil {
		t.Error("Verify accepted a file the model never created")
	}
	// An op whose result differs from the model's is counted as failed.
	log.run(fs, []op{{Kind: kReaddir, Path: "/w", N: 0}, {Kind: kStat, Path: "/w/gone"}}, nil)
	if log.failed != 2 {
		t.Errorf("%d ops failed, want 2", log.failed)
	}
}
