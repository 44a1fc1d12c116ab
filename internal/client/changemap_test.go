package client

import (
	"reflect"
	"testing"

	"locofs/internal/netsim"
	"locofs/internal/rpc"
	"locofs/internal/wire"
)

// TestChangeMapRetriesOnStale pins changeMap's serialisation rule with no
// concurrency at all: the client edits version 5, but partition 0's leader
// already holds a version 6 the client has not seen, so the first push is
// refused with ESTALE. changeMap must re-read the map and re-apply the edit
// to version 6 — keeping what version 6 added — not re-push its stale result.
func TestChangeMapRetriesOnStale(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	servers := make(map[string]*rpc.Server)
	for _, addr := range []string{"dms", "fms-0", "oss"} {
		rs := rpc.NewServer() // every role answers OpGetMap/OpSetMap
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go rs.Serve(l)
		t.Cleanup(rs.Shutdown)
		servers[addr] = rs
	}
	v5 := &wire.ClusterMap{Ver: 5, Groups: [][]string{{"dms"}}, FMS: []wire.Member{{ID: 0, Addr: "fms-0"}}}
	servers["dms"].InstallMap(v5, wire.DMSCoords(0, 0))
	servers["fms-0"].InstallMap(v5, wire.FMSCoords(0))
	c := dialTest(t, Config{Dialer: n, DMSAddr: "dms", FMSAddrs: []string{"fms-0"}, OSSAddrs: []string{"oss"}})
	if c.Map().Ver != 5 {
		t.Fatalf("bootstrap map version = %d, want 5", c.Map().Ver)
	}

	// Someone else's change, which this client has not heard of.
	v6 := v5.Clone()
	v6.Ver, v6.Cuts = 6, []wire.PartCut{{Dir: "/theirs", PID: 0}}
	servers["dms"].InstallMap(v6, wire.DMSCoords(0, 0))

	var bases []uint64
	got, unreached, err := c.changeMap(opCtx{}, func(m *wire.ClusterMap) error {
		bases = append(bases, m.Ver)
		m.Cuts = append(m.Cuts, wire.PartCut{Dir: "/mine", PID: 0})
		return nil
	})
	if err != nil || len(unreached) != 0 {
		t.Fatalf("changeMap: %v (unreached %v)", err, unreached)
	}
	if len(bases) != 2 || bases[0] != 5 || bases[1] != 6 {
		t.Errorf("edit applied to versions %v, want [5 6]", bases)
	}
	want := []wire.PartCut{{Dir: "/theirs", PID: 0}, {Dir: "/mine", PID: 0}}
	if got.Ver != 7 || len(got.Cuts) != 2 || got.Cuts[0] != want[0] || got.Cuts[1] != want[1] {
		t.Errorf("installed map = %+v, want version 7 with cuts %v", got, want)
	}
	for addr, rs := range servers {
		if m, _ := rs.Map(); m.Ver != 7 || len(m.Cuts) != 2 {
			t.Errorf("%s holds %+v, want version 7 with both cuts", addr, m)
		}
	}
	if !reflect.DeepEqual(c.Map(), got) {
		t.Errorf("client routes by %+v, want the map it installed", c.Map())
	}
}
