package bench

import (
	"strconv"
	"strings"
	"testing"
)

// parseUS parses a "123.4us" cell into a float of microseconds.
func parseUS(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "us"), 64)
	if err != nil {
		t.Fatalf("bad latency cell %q: %v", cell, err)
	}
	return v
}

// fanOutRow returns the sweep row for n FMSes.
func fanOutRow(t *testing.T, tbl *Table, n string) []string {
	t.Helper()
	for _, row := range tbl.Rows {
		if row[0] == n {
			return row
		}
	}
	t.Fatalf("no row for %s FMSes in %v", n, tbl.Rows)
	return nil
}

// TestFanOutShape asserts the acceptance shape of the fan-out experiment:
// parallel readdir/rmdir are at least 2x faster than serial at 8 FMSes, and
// the parallel latency scales sublinearly in FMS count (it tracks the
// slowest server, not the sum).
func TestFanOutShape(t *testing.T) {
	env := Quick()
	tbl, err := FigFanOut(env)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(tbl)

	rdSerial := col(t, tbl, "readdir "+modeSerial)
	rdPar := col(t, tbl, "readdir "+modeParallel)
	rmSerial := col(t, tbl, "rmdir "+modeSerial)
	rmPar := col(t, tbl, "rmdir "+modeParallel)

	at8 := fanOutRow(t, tbl, "8")
	if s, p := parseUS(t, at8[rdSerial]), parseUS(t, at8[rdPar]); p*2 > s {
		t.Errorf("readdir at 8 FMSes: parallel %.1fus not 2x faster than serial %.1fus", p, s)
	}
	if s, p := parseUS(t, at8[rmSerial]), parseUS(t, at8[rmPar]); p*2 > s {
		t.Errorf("rmdir at 8 FMSes: parallel %.1fus not 2x faster than serial %.1fus", p, s)
	}
	at1 := fanOutRow(t, tbl, "1")

	// Sublinear scaling: from 1 FMS to 8 FMSes serial readdir multiplies
	// its round trips ~(1+n), while parallel overlaps them — its growth
	// factor must stay well under the server-count growth factor.
	serialGrowth := parseUS(t, at8[rdSerial]) / parseUS(t, at1[rdSerial])
	parGrowth := parseUS(t, at8[rdPar]) / parseUS(t, at1[rdPar])
	if parGrowth >= serialGrowth/2 {
		t.Errorf("parallel readdir growth 1->8 FMSes = %.2fx, serial = %.2fx; want parallel under half of serial",
			parGrowth, serialGrowth)
	}
	if parGrowth >= 8 {
		t.Errorf("parallel readdir latency grew %.2fx over 8x servers — not sublinear", parGrowth)
	}
}
