package rpc

import (
	"sync/atomic"
	"testing"

	"locofs/internal/chash"
	"locofs/internal/netsim"
	"locofs/internal/wire"
)

func testMap(ver uint64) *wire.ClusterMap {
	return &wire.ClusterMap{
		Ver:    ver,
		Groups: [][]string{{"dms"}},
		FMS:    []wire.Member{{ID: 0, Addr: "fms-0"}, {ID: 1, Addr: "fms-1"}},
	}
}

// TestSetMembershipEpochGuard: the one install rule. Only a strictly newer
// version replaces an installed map — an equal one is refused like an older
// one — anything installs over nothing, and MapVer tracks the installed map.
func TestSetMembershipEpochGuard(t *testing.T) {
	s := NewServer()
	if s.MapVer() != 0 {
		t.Fatalf("fresh server map version = %d", s.MapVer())
	}
	if m, at := s.Map(); m.Ver != 0 || len(m.Groups) != 0 || at != wire.FMSCoords(-1) {
		t.Fatalf("fresh server map = %+v at %+v", m, at)
	}
	if !s.InstallMap(testMap(3), wire.FMSCoords(0)) {
		t.Fatal("install version 3 refused")
	}
	if s.InstallMap(testMap(2), wire.FMSCoords(0)) {
		t.Error("older version accepted")
	}
	if s.InstallMap(testMap(3), wire.FMSCoords(0)) {
		t.Error("equal version accepted (only a strictly newer map installs)")
	}
	if !s.InstallMap(testMap(4), wire.FMSCoords(1)) {
		t.Error("newer version refused")
	}
	if s.MapVer() != 4 {
		t.Errorf("map version = %d, want 4", s.MapVer())
	}
	if m, at := s.Map(); m.Ver != 4 || at.Ring != 1 {
		t.Errorf("map = %+v at %+v", m, at)
	}

	// Version 0 installs only where nothing is (a solo DMS's own map), and
	// loses to everything afterwards.
	solo := NewServer()
	if !solo.InstallMap(wire.SoloMap(""), wire.DMSCoords(0, 0)) {
		t.Error("solo map refused on a fresh server")
	}
	if solo.InstallMap(wire.SoloMap("x"), wire.DMSCoords(0, 0)) {
		t.Error("version 0 replaced an installed map")
	}
	if solo.MapVer() != 0 || !solo.InstallMap(testMap(1), wire.DMSCoords(0, 0)) {
		t.Error("version 1 refused over the solo map")
	}
}

// TestOwnsKey: with a map naming an FMS set installed the server answers
// ownership exactly as the equivalent client-side ring would; without one
// (or as a non-FMS, or under a map that names no FMS set) ownership is
// unknowable.
func TestOwnsKey(t *testing.T) {
	s := NewServer()
	if _, known := s.OwnsKey([]byte("k")); known {
		t.Error("static topology reported known ownership")
	}
	s.InstallMap(testMap(1), wire.FMSCoords(1))
	ring := chash.NewRing(0, 0, 1)
	agree := 0
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		owns, known := s.OwnsKey([]byte(k))
		if !known {
			t.Fatalf("ownership unknown for %q", k)
		}
		if owns == (ring.Locate([]byte(k)) == 1) {
			agree++
		}
	}
	if agree != 8 {
		t.Errorf("OwnsKey disagrees with ring on %d/8 keys", 8-agree)
	}
	// A non-FMS participant tracks the version but not ownership.
	s2 := NewServer()
	s2.InstallMap(testMap(2), wire.DMSCoords(0, 0))
	if _, known := s2.OwnsKey([]byte("k")); known {
		t.Error("a DMS replica reported known ownership")
	}
	if s2.MapVer() != 2 {
		t.Errorf("non-FMS map version = %d, want 2", s2.MapVer())
	}
	// An empty FMS set means "the list the client was configured with": the
	// server cannot know it, so the guard stays off.
	s3 := NewServer()
	s3.InstallMap(&wire.ClusterMap{Ver: 1, Groups: [][]string{{"dms"}}}, wire.FMSCoords(1))
	if _, known := s3.OwnsKey([]byte("k")); known {
		t.Error("ownership known under a map with no FMS set")
	}
}

// TestMembershipOverWire: OpSetMap/OpGetMap round trip over the transport on
// a server of no particular role, responses carry the installed version,
// and CallSpec.OnMap observes it.
func TestMembershipOverWire(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	s := NewServer()
	l, _ := n.Listen("srv")
	go s.Serve(l)
	c, err := Dial(n, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// No map yet: get answers the empty version-0 map, responses stamp 0.
	var seen atomic.Uint64
	onMap := func(v uint64) { seen.Store(v) }
	st, body, _, err := c.Do(CallSpec{Op: wire.OpGetMap, OnMap: onMap})
	if err != nil || st != wire.StatusOK {
		t.Fatalf("get before set = %v %v", st, err)
	}
	if got, err := wire.DecodeClusterMap(body); err != nil || got.Ver != 0 || len(got.Groups) != 0 {
		t.Errorf("map before set = %+v err=%v", got, err)
	}
	if seen.Load() != 0 {
		t.Errorf("OnMap observed %d before any install", seen.Load())
	}

	st, _, _, err = c.Do(CallSpec{Op: wire.OpSetMap, Body: wire.EncodeSetMap(testMap(5), wire.FMSCoords(0))})
	if err != nil || st != wire.StatusOK {
		t.Fatalf("set = %v %v", st, err)
	}
	// A stale push, and a re-push of the same version, are refused with ESTALE.
	for _, ver := range []uint64{4, 5} {
		st, _, _, _ = c.Do(CallSpec{Op: wire.OpSetMap, Body: wire.EncodeSetMap(testMap(ver), wire.FMSCoords(0))})
		if st != wire.StatusStale {
			t.Errorf("set of version %d over 5 = %v, want ESTALE", ver, st)
		}
	}
	if st, _, _, _ = c.Do(CallSpec{Op: wire.OpSetMap, Body: []byte{1, 2}}); st != wire.StatusInval {
		t.Errorf("malformed set = %v, want EINVAL", st)
	}

	st, body, _, err = c.Do(CallSpec{Op: wire.OpGetMap, OnMap: onMap})
	if err != nil || st != wire.StatusOK {
		t.Fatalf("get = %v %v", st, err)
	}
	got, err := wire.DecodeClusterMap(body)
	if err != nil || got.Ver != 5 || len(got.FMS) != 2 {
		t.Errorf("map = %+v err=%v", got, err)
	}
	if seen.Load() != 5 {
		t.Errorf("OnMap observed %d, want 5", seen.Load())
	}
}
