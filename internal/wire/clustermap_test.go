package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func testClusterMap() *ClusterMap {
	return &ClusterMap{
		Ver:    3,
		Cuts:   []PartCut{{Dir: "/b", PID: 1}, {Dir: "/b/deep", PID: 0}},
		Groups: [][]string{{"p0-l", "p0-f"}, {"p1-l"}},
		FMS:    []Member{{0, "fms-0"}, {1, "fms-1"}, {4, "fms-4"}},
		Prev:   []Member{{0, "fms-0"}, {1, "fms-1"}},
	}
}

// TestMembershipRoundTrip: the whole map — cuts, groups, the FMS membership
// and its Prev window — survives the codec.
func TestMembershipRoundTrip(t *testing.T) {
	m := testClusterMap()
	got, err := DecodeClusterMap(EncodeClusterMap(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip = %+v, want %+v", got, m)
	}
	if ids := RingIDs(got.FMS); len(ids) != 3 || ids[0] != 0 || ids[2] != 4 {
		t.Errorf("RingIDs(FMS) = %v", ids)
	}
	if ids := RingIDs(got.Prev); len(ids) != 2 || ids[1] != 1 {
		t.Errorf("RingIDs(Prev) = %v", ids)
	}

	// A closed window, no FMS set at all (the configured list stands), and
	// the solo map must survive the trip too.
	for _, m2 := range []*ClusterMap{
		{Ver: 4, Groups: m.Groups, FMS: m.FMS},
		{Ver: 1, Groups: m.Groups, Cuts: m.Cuts},
		SoloMap("dms"),
	} {
		got2, err := DecodeClusterMap(EncodeClusterMap(m2))
		if err != nil || !reflect.DeepEqual(got2, m2) {
			t.Errorf("round trip = %+v, %v, want %+v", got2, err, m2)
		}
	}

	if _, err := DecodeClusterMap([]byte{1, 2, 3}); err == nil {
		t.Error("truncated map decoded without error")
	}
}

// TestSetMembershipRoundTrip: an OpSetMap request carries the receiver's
// coordinates with the map, -1 where one does not apply.
func TestSetMembershipRoundTrip(t *testing.T) {
	m := testClusterMap()
	for _, at := range []Coords{DMSCoords(1, 0), FMSCoords(4), FMSCoords(-1)} {
		got, gotAt, err := DecodeSetMap(EncodeSetMap(m, at))
		if err != nil {
			t.Fatal(err)
		}
		if gotAt != at || !reflect.DeepEqual(got, m) {
			t.Errorf("at=%+v map=%+v, want %+v %+v", gotAt, got, at, m)
		}
	}
	if at := DMSCoords(1, 2); at.PID != 1 || at.Idx != 2 || at.Ring != -1 {
		t.Errorf("DMSCoords = %+v", at)
	}
	if at := FMSCoords(3); at.PID != -1 || at.Idx != -1 || at.Ring != 3 {
		t.Errorf("FMSCoords = %+v", at)
	}
}

func TestClusterMapCloneIsDeep(t *testing.T) {
	m := testClusterMap()
	c := m.Clone()
	if !reflect.DeepEqual(c, m) {
		t.Fatalf("clone = %+v, want %+v", c, m)
	}
	c.Groups[0][0] = "other"
	c.Groups[1] = append(c.Groups[1], "p1-f")
	c.FMS[0].Addr = "other"
	c.Prev = nil
	c.Cuts[0].PID = 7
	if !reflect.DeepEqual(m, testClusterMap()) {
		t.Errorf("editing the clone changed the original: %+v", m)
	}
}

func TestPartitionOf(t *testing.T) {
	m := testClusterMap()
	for _, tc := range []struct {
		addr string
		pid  uint32
		idx  int
		ok   bool
	}{{"p0-l", 0, 0, true}, {"p0-f", 0, 1, true}, {"p1-l", 1, 0, true}, {"fms-0", 0, 0, false}, {"", 0, 0, false}} {
		pid, idx, ok := m.PartitionOf(tc.addr)
		if pid != tc.pid || idx != tc.idx || ok != tc.ok {
			t.Errorf("PartitionOf(%q) = %d %d %v, want %d %d %v", tc.addr, pid, idx, ok, tc.pid, tc.idx, tc.ok)
		}
	}
}

// FuzzClusterMap: the map decoder takes bytes straight off the network.
// Arbitrary input must never panic or allocate beyond what the input backs,
// and whatever decodes must re-encode to something that decodes to the same
// map.
func FuzzClusterMap(f *testing.F) {
	f.Add(EncodeClusterMap(testClusterMap()))
	f.Add(EncodeClusterMap(SoloMap("")))
	f.Add(EncodeClusterMap(&ClusterMap{}))
	// A cut count of 2^32-1 backed by nothing.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeClusterMap(data)
		if err != nil {
			return
		}
		// Every element consumes at least four bytes of input.
		if n := len(m.Cuts) + len(m.Groups) + len(m.FMS) + len(m.Prev); n > len(data)/4 {
			t.Fatalf("%d elements decoded from %d bytes", n, len(data))
		}
		again, err := DecodeClusterMap(EncodeClusterMap(m))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("decode(encode(m)) = %+v, %v; want %+v", again, err, m)
		}
		// The accessors index Groups; none may panic on a decoded map.
		m.Locate("/b/x")
		m.LocateList("/")
		m.Leader(uint32(len(m.Groups)))
		m.PartitionOf("p0-l")
		m.Clone()
	})
}

// FuzzReadMsg: the frame reader is the first thing network bytes meet. It
// must never panic, and any frame it accepts must re-frame (61-byte header)
// through AppendMsg to a message that reads back identical.
func FuzzReadMsg(f *testing.F) {
	frame := func(m *Msg) []byte {
		b, err := AppendMsg(nil, m)
		if err != nil {
			panic(err) // no body here exceeds MaxBody
		}
		return b
	}
	f.Add(frame(&Msg{ID: 1, Op: OpStatFile, Trace: 1, Body: []byte("0123456789abcdef\x00\x00\x00\x06f00001")}))
	f.Add(frame(&Msg{ID: 42, IsResp: true, Op: OpSetMap, Status: StatusStale, ServiceNS: 9, Span: 3, Req: 4, Map: 7, Lease: 17}))
	f.Add([]byte{0, 0, 0, 60, 1, 2, 3})   // one byte short of a header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversize
	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadMsg allocates what the length prefix declares (at most MaxBody)
		// before reading it; keep truncated giants from eating the fuzzing
		// box's memory.
		if len(data) >= 4 {
			if n := binary.BigEndian.Uint32(data); n <= headerSize+MaxBody && int(n) > len(data)+1<<16 {
				t.Skip()
			}
		}
		m, err := ReadMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.WireSize() > len(data) {
			t.Fatalf("message of %d wire bytes read from %d", m.WireSize(), len(data))
		}
		again, err := ReadMsg(bytes.NewReader(frame(m)))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("read(write(m)) = %+v, %v; want %+v", again, err, m)
		}
	})
}
