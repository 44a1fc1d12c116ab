package main

import (
	"regexp"
	"testing"
)

// BENCHMARK.json is static and the program prints what metrics.go lists;
// this holds the two together, and to the limits of the benchmark contract.
func TestContractMatchesLedger(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u string) {
		if !name.MatchString(n) || (u != "" && !unit.MatchString(u)) {
			t.Errorf("%s %q (unit %q) breaks the contract's naming rules", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(ct.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(ct.Workloads), len(workloadNames))
	}
	for i, w := range ct.Workloads {
		check("workload", w.Name, "")
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloadNames[i])
		}
	}
	if len(ct.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(ct.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range ct.EndToEnd {
		check("end-to-end metric", m.Name, m.Unit)
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end metric %d is %s [%s], the program prints %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(ct.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d (limit 128)", len(ct.PerLayer), len(perLayer))
	}
	for i, m := range ct.PerLayer {
		check("per-layer metric", m.Name, m.Unit)
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer metric %d is %s [%s], the program prints %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	for _, n := range exactMetrics {
		if !seen[n] {
			t.Errorf("exact metric %q is not a per-layer metric", n)
		}
	}
	if ct.RunSeconds < 1 || ct.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", ct.RunSeconds)
	}
}
