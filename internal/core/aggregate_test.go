package core

import (
	"errors"
	"strings"
	"testing"

	"locofs/internal/obs"
	"locofs/internal/slo"
)

// driveOps issues a small mixed metadata workload so every server has
// windowed telemetry to report.
func driveOps(t *testing.T, c *Cluster) {
	t.Helper()
	cl := newClient(t, c, ClientConfig{})
	if err := cl.Mkdir("/agg", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/agg/a", "/agg/b", "/agg/c"} {
		if err := cl.Create(name, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.StatFile(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Readdir("/agg"); err != nil {
		t.Fatal(err)
	}
}

func TestClusterStatusMergesAllServers(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 4})
	driveOps(t, c)

	cs := c.ClusterStatus()
	if len(cs.Servers) != 7 { // dms + 4 fms + 1 oss + driveOps's client
		t.Fatalf("servers = %d, want 7", len(cs.Servers))
	}
	seen := map[string]bool{}
	for _, st := range cs.Servers {
		seen[st.Server] = true
		if st.Version == "" || st.GoVersion == "" {
			t.Errorf("%s: build identity missing", st.Server)
		}
		if st.WindowWidthSec <= 0 || st.WindowNum <= 0 {
			t.Errorf("%s: window geometry missing", st.Server)
		}
	}
	for _, want := range []string{"dms", "fms-0", "fms-3", "oss-0", "client-0"} {
		if !seen[want] {
			t.Errorf("server %s missing from cluster status", want)
		}
	}
	if len(cs.Unreachable) != 0 {
		t.Errorf("unreachable = %v, want none", cs.Unreachable)
	}
	if cs.MapVer != 1 || !cs.MapAgreement {
		t.Errorf("map version/agreement = %d/%v, want 1/true", cs.MapVer, cs.MapAgreement)
	}
	if len(cs.Service) == 0 {
		t.Fatal("no merged service windows after traffic")
	}
	var total uint64
	for _, ow := range cs.Service {
		total += ow.Count
	}
	if total == 0 {
		t.Error("merged service windows hold no events")
	}
	if len(cs.SLO) == 0 {
		t.Fatal("no merged SLO classes")
	}
	for _, cl := range cs.SLO {
		if cl.Class == slo.ClassMDMutate && cl.WindowCount == 0 {
			t.Error("md_mutate class saw no events despite creates")
		}
	}
	if len(cs.Hot) == 0 {
		t.Error("no hot keys surfaced from the DMS/FMS sketches")
	}
}

func TestAggregatorToleratesDeadSource(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 2})
	driveOps(t, c)

	dead := obs.StatusSource{
		Name:  "fms-9",
		Fetch: func() (*slo.ServerStatus, error) { return nil, errors.New("connection refused") },
	}
	// An unreachable HTTP peer behaves the same way as a failing fetch.
	deadHTTP := obs.HTTPSource("oss-9", "http://127.0.0.1:1/debug/slo", 0)

	cs := obs.Poll(append(c.StatusSources(), dead, deadHTTP), nil)
	if cs == nil {
		t.Fatal("poll with dead sources returned nil")
	}
	if len(cs.Servers) != 5 { // dms + 2 fms + oss + driveOps's client
		t.Fatalf("live servers = %d, want 5", len(cs.Servers))
	}
	if len(cs.Unreachable) != 2 {
		t.Fatalf("unreachable = %v, want [fms-9 oss-9]", cs.Unreachable)
	}
	if got := strings.Join(cs.Unreachable, ","); !strings.Contains(got, "fms-9") || !strings.Contains(got, "oss-9") {
		t.Errorf("unreachable = %v", cs.Unreachable)
	}

	// The human-readable table renders the partial view.
	var sb strings.Builder
	cs.Format(&sb)
	if !strings.Contains(sb.String(), "fms-9") {
		t.Error("status table does not mention the unreachable server")
	}
}

func TestClusterStatusFollowsMembership(t *testing.T) {
	c := startCluster(t, Options{FMSCount: 2})
	driveOps(t, c)
	if _, err := c.AddFMS(); err != nil {
		t.Fatal(err)
	}
	cs := c.ClusterStatus()
	found := false
	for _, st := range cs.Servers {
		if st.Server == "fms-2" {
			found = true
		}
	}
	if !found {
		t.Fatal("freshly added fms-2 missing from cluster status")
	}
	if cs.MapVer < 2 {
		t.Errorf("map version = %d, want >= 2 after AddFMS", cs.MapVer)
	}
	if !cs.MapAgreement {
		t.Error("map version disagreement after completed AddFMS")
	}
}
