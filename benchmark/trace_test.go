package main

import (
	"math"
	"testing"
)

// A root with two sequential calls, each holding a handler.
func TestSelfTimesSequential(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "client.op/create", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: spanCall, Start: 10, End: 40},
		{ID: 3, Parent: 2, Trace: 1, Name: "dms.handler", Start: 20, End: 30},
		{ID: 4, Parent: 1, Trace: 1, Name: spanCall, Start: 50, End: 90},
		{ID: 5, Parent: 4, Trace: 1, Name: "fms.handler", Start: 60, End: 65},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 30, 2: 20, 3: 10, 4: 35, 5: 5}
	var sum int64
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
		sum += self[id]
	}
	if sum != 100 {
		t.Errorf("self times add up to %d, want the root's 100", sum)
	}
}

// Overlapping children (a parallel fan-out) are counted once; a child that
// outlives its parent is clipped.
func TestSelfTimesOverlapAndClip(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "client.op/rmdir", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: spanCall, Start: 10, End: 60},
		{ID: 3, Parent: 1, Trace: 1, Name: spanCall, Start: 20, End: 50},  // inside 2
		{ID: 4, Parent: 1, Trace: 1, Name: spanCall, Start: 55, End: 80},  // overlaps 2's end
		{ID: 5, Parent: 1, Trace: 1, Name: spanCall, Start: 90, End: 130}, // runs past the root
	}
	if got := selfTimes(spans)[1]; got != 20 {
		t.Errorf("root self = %d, want 20 (covered 10-80 and 90-100)", got)
	}
}

func TestBreakdown(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "client.op/create", Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Trace: 1, Name: spanCall, Start: 10_000, End: 90_000},
		{ID: 3, Parent: 2, Trace: 1, Name: "fms.handler", Start: 40_000, End: 60_000},
		{ID: 4, Trace: 4, Name: "client.op/stat", Start: 200_000, End: 260_000},
		{ID: 5, Parent: 4, Trace: 4, Name: spanCall, Start: 205_000, End: 255_000},
		{ID: 6, Parent: 5, Trace: 4, Name: "fms.handler", Start: 225_000, End: 235_000},
	}
	bd := breakdown(spans)
	c := bd["create"]
	if c.Ops != 1 || c.Total != 100 || c.Client != 20 || c.Transit != 60 || c.Handler["fms"] != 20 || c.Calls != 1 {
		t.Errorf("create = %+v", c)
	}
	all := bd[""]
	if all.Ops != 2 || all.Total != 80 || all.Client != 15 || all.Transit != 50 || all.Handler["fms"] != 15 {
		t.Errorf("all = %+v", all)
	}
	if sum := all.Client + all.Transit + all.Handler["fms"]; math.Abs(sum-all.Total) > 1e-9 {
		t.Errorf("layers add up to %v, total is %v", sum, all.Total)
	}
}

// The tracer parents an RPC to the operation in progress and drops traffic
// that belongs to none.
func TestTracerCall(t *testing.T) {
	tr := newTracer(func(string) string { return "fms" })
	tr.call("fms", 0, 10, 5) // no operation in progress
	tr.begin("stat")
	tr.call("fms", 100, 200, 40)
	tr.call("fms", 300, 400, 1000) // ServiceNS longer than the call is clipped
	tr.end()
	if len(tr.spans) != 5 {
		t.Fatalf("%d spans, want 5", len(tr.spans))
	}
	root := tr.spans[4]
	if root.Name != "client.op/stat" || root.Parent != 0 {
		t.Errorf("root = %+v", root)
	}
	call, h := tr.spans[0], tr.spans[1]
	if call.Parent != root.ID || call.Trace != root.Trace || h.Parent != call.ID || h.Name != "fms.handler" {
		t.Errorf("call = %+v handler = %+v", call, h)
	}
	if h.Start != 130 || h.End != 170 {
		t.Errorf("handler centred at [%d,%d], want [130,170]", h.Start, h.End)
	}
	if clipped := tr.spans[3]; clipped.End-clipped.Start != 100 {
		t.Errorf("clipped handler lasts %d, want 100", clipped.End-clipped.Start)
	}
}
