package slo

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"locofs/internal/telemetry"
)

// record feeds n observations of d into the windowed service histogram for
// op on reg.
func record(reg *telemetry.Registry, metric, op string, n int, d time.Duration) {
	w := reg.Windowed(metric, telemetry.L("op", op))
	for i := 0; i < n; i++ {
		w.Record(d)
	}
}

func TestClassOf(t *testing.T) {
	cases := map[string]string{
		"StatDir":    ClassMDRead,
		"AccessFile": ClassMDRead,
		"Mkdir":      ClassMDMutate,
		"RenameFile": ClassMDMutate,
		"PutBlock":   ClassData,
		"Ping":       classOther,
		"Migrate":    classOther,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%s) = %s, want %s", op, got, want)
		}
	}
}

func TestTrackerEvalBurnAndBudget(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.L("server", "fms-0"))
	// md_read: 990 fast + 10 slow events → bad fraction 1% = exactly at a
	// 1% budget (burn 1.0, met). md_mutate: 90 fast + 10 slow → 10% bad,
	// burn 10 with a 1% budget, objective missed.
	record(reg, MetricService, "StatDir", 990, 100*time.Microsecond)
	record(reg, MetricService, "StatDir", 10, 50*time.Millisecond)
	record(reg, MetricService, "Mkdir", 90, 200*time.Microsecond)
	record(reg, MetricService, "Mkdir", 10, 80*time.Millisecond)

	tr := NewTracker(reg, nil) // defaults to ServerObjectives
	byClass := map[string]ClassStatus{}
	for _, cs := range tr.Eval() {
		byClass[cs.Class] = cs
	}

	read := byClass[ClassMDRead]
	if read.WindowCount != 1000 {
		t.Fatalf("md_read window count = %d, want 1000", read.WindowCount)
	}
	if read.WindowBad != 10 {
		t.Fatalf("md_read bad = %d, want 10", read.WindowBad)
	}
	if read.BurnRate < 0.9 || read.BurnRate > 1.1 {
		t.Errorf("md_read burn = %.3f, want ~1.0", read.BurnRate)
	}
	if !read.Met {
		t.Error("md_read at exactly budget must still be met")
	}
	if read.BudgetRemaining > 0.15 || read.BudgetRemaining < -0.15 {
		t.Errorf("md_read budget remaining = %.3f, want ~0", read.BudgetRemaining)
	}

	mut := byClass[ClassMDMutate]
	if mut.WindowCount != 100 || mut.WindowBad != 10 {
		t.Fatalf("md_mutate count/bad = %d/%d, want 100/10", mut.WindowCount, mut.WindowBad)
	}
	if mut.Met {
		t.Error("md_mutate at 10x budget reported as met")
	}
	if mut.BurnRate < 5 {
		t.Errorf("md_mutate burn = %.2f, want ~10", mut.BurnRate)
	}
	if mut.BudgetRemaining >= 0 {
		t.Errorf("md_mutate budget remaining = %.2f, want negative (overspent)", mut.BudgetRemaining)
	}

	data := byClass[ClassData]
	if data.WindowCount != 0 || !data.Met || data.BudgetRemaining != 1 {
		t.Errorf("idle data class = %+v, want empty/met/full budget", data)
	}
}

func TestTrackerExportGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	record(reg, MetricService, "Mkdir", 10, 50*time.Millisecond) // all bad
	tr := NewTracker(reg, nil)
	tr.Export(reg)
	var sb strings.Builder
	reg.Snapshot().WriteProm(&sb)
	out := sb.String()
	if !strings.Contains(out, `locofs_slo_burn_rate{class="md_mutate"} 100`) {
		t.Errorf("burn gauge missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, `locofs_slo_budget_remaining{class="md_read"} 1`) {
		t.Errorf("idle class budget gauge missing:\n%s", out)
	}
	if !strings.Contains(out, `locofs_slo_window_p_seconds{class="md_mutate"}`) {
		t.Errorf("window percentile gauge missing:\n%s", out)
	}
}

func TestCollectAndServerStatusJSON(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.L("server", "dms"))
	record(reg, MetricService, "Mkdir", 100, time.Millisecond)
	record(reg, MetricQueue, "Mkdir", 100, 10*time.Microsecond)
	reg.Counter("locofs_rpc_requests_total", telemetry.L("op", "Mkdir")).Add(100)

	st := Collect(reg, CollectOptions{MapVer: 7, Hot: []HotEntry{{Source: "dms", Key: "/a", Count: 5}}})
	if st.Server != "dms" {
		t.Errorf("server = %q, want dms (from base label)", st.Server)
	}
	if st.MapVer != 7 {
		t.Errorf("map version = %d, want 7", st.MapVer)
	}
	if st.GoVersion == "" || st.Version == "" || st.UptimeSec <= 0 {
		t.Errorf("identity incomplete: %+v", st)
	}
	if len(st.Service) != 1 || st.Service[0].Op != "Mkdir" || st.Service[0].Count != 100 {
		t.Fatalf("service windows = %+v", st.Service)
	}
	if len(st.Queue) != 1 || len(st.RTT) != 0 {
		t.Fatalf("queue/rtt split wrong: %d/%d", len(st.Queue), len(st.RTT))
	}
	if len(st.Service[0].Buckets) == 0 {
		t.Error("service window carries no buckets — cluster merge would be lossy")
	}
	found := false
	for k, v := range st.Counters {
		if strings.HasPrefix(k, "locofs_rpc_requests_total") && v == 100 {
			found = true
		}
		if strings.Contains(k, "_window") {
			t.Errorf("synthetic window gauge leaked into counters: %s", k)
		}
	}
	if !found {
		t.Errorf("requests counter missing from %v", st.Counters)
	}

	// The wire form must round-trip: quantiles recomputed from decoded
	// buckets match the source within log-bucket resolution.
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ServerStatus
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	h := HistFromBuckets(back.Service[0].Buckets, back.Service[0].SumSec, back.Service[0].MaxSec)
	if h.Count != 100 {
		t.Errorf("round-tripped bucket count = %d, want 100", h.Count)
	}
	got := h.Quantile(0.95).Seconds()
	if got < st.Service[0].P95Sec/2 || got > st.Service[0].P95Sec*2 {
		t.Errorf("round-tripped p95 = %v, want ~%v", got, st.Service[0].P95Sec)
	}
}

func TestMergeClusterQuantilesAndEpochs(t *testing.T) {
	// Two servers with very different latency mixes: the cluster p95 must
	// come from the summed distribution, not an average of per-server p95s.
	regA := telemetry.NewRegistry(telemetry.L("server", "fms-0"))
	record(regA, MetricService, "StatFile", 940, 100*time.Microsecond)
	regB := telemetry.NewRegistry(telemetry.L("server", "fms-1"))
	record(regB, MetricService, "StatFile", 60, 40*time.Millisecond)

	a := Collect(regA, CollectOptions{MapVer: 3})
	b := Collect(regB, CollectOptions{MapVer: 3})
	cs := MergeCluster([]*ServerStatus{b, a}, []string{"fms-2"})

	if cs.MapVer != 3 || !cs.MapAgreement {
		t.Errorf("map version/agreement = %d/%v, want 3/true", cs.MapVer, cs.MapAgreement)
	}
	if len(cs.Servers) != 2 || cs.Servers[0].Server != "fms-0" {
		t.Fatalf("servers not sorted: %v, %v", cs.Servers[0].Server, cs.Servers[1].Server)
	}
	if len(cs.Unreachable) != 1 || cs.Unreachable[0] != "fms-2" {
		t.Errorf("unreachable = %v", cs.Unreachable)
	}
	if len(cs.Service) != 1 || cs.Service[0].Count != 1000 {
		t.Fatalf("merged service = %+v", cs.Service)
	}
	// 6% of the merged population sits at 40ms; the cluster p95 must land
	// near the slow mode's lower bucket edge, far above fms-0's local p95
	// (~100µs) — an averaged p95 would sit near 2ms.
	p95 := cs.Service[0].P95Sec
	if p95 < 0.010 {
		t.Errorf("cluster p95 = %v s, want >= 10ms (summed-bucket merge)", p95)
	}
	// SLO classes merge the same way: 60/1000 = 6% bad on a 1% budget.
	var read ClassStatus
	for _, c := range cs.SLO {
		if c.Class == ClassMDRead {
			read = c
		}
	}
	if read.WindowCount != 1000 || read.Met {
		t.Errorf("merged md_read = %+v, want 1000 events and missed", read)
	}
	if read.BurnRate < 3 {
		t.Errorf("merged burn = %.2f, want ~6", read.BurnRate)
	}

	// Servers holding different map versions must be flagged.
	b2 := Collect(regB, CollectOptions{MapVer: 4})
	cs2 := MergeCluster([]*ServerStatus{a, b2}, nil)
	if cs2.MapAgreement || cs2.MapVer != 4 {
		t.Errorf("disagreement: map version=%d agreement=%v, want 4/false", cs2.MapVer, cs2.MapAgreement)
	}
}

func TestFormatTable(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.L("server", "dms"))
	record(reg, MetricService, "Mkdir", 100, time.Millisecond)
	cs := MergeCluster([]*ServerStatus{Collect(reg, CollectOptions{MapVer: 1, Hot: []HotEntry{{Source: "dms", Key: "/hot", Count: 9}}})}, []string{"fms-9"})
	var sb strings.Builder
	cs.Format(&sb)
	out := sb.String()
	for _, want := range []string{"map version 1", "unreachable: fms-9", "dms", "md_mutate", "Mkdir", "/hot"} {
		if !strings.Contains(out, want) {
			t.Errorf("status table missing %q:\n%s", want, out)
		}
	}
}
