package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"locofs/internal/telemetry"
)

// newJournalForTest is a wall-clock journal, as every process has one.
func newJournalForTest() *Journal { return New(Config{}).Journal }

func TestJournalAppendAssignsDenseSeqs(t *testing.T) {
	j := newJournalForTest()
	for i := 0; i < 5; i++ {
		if got := j.Emit(KindRetry, "client", "stat", 7, int64(i), "fms-0"); got != uint64(i+1) {
			t.Fatalf("emit %d: seq = %d, want %d", i, got, i+1)
		}
	}
	if j.Seq() != 5 {
		t.Fatalf("Seq() = %d, want 5", j.Seq())
	}
	evs, next, reset := j.Since(0, 0)
	if len(evs) != 5 || next != 5 || reset {
		t.Fatalf("Since(0) = %d events, next %d, reset %v", len(evs), next, reset)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq = %d, want dense", i, ev.Seq)
		}
		if ev.TimeNS == 0 {
			t.Errorf("event %d: TimeNS not stamped", i)
		}
		if ev.Kind != KindRetry || ev.Source != "client" || ev.Op != "stat" || ev.Trace != 7 {
			t.Errorf("event %d: fields not preserved: %+v", i, ev)
		}
	}
}

func TestJournalWraparound(t *testing.T) {
	const extra = 12
	total := uint64(journalCap + extra)
	j := newJournalForTest()
	for i := uint64(0); i < total; i++ {
		j.Emit(KindLeaseRecall, "dms", "", 0, int64(i), "/d")
	}
	if got := j.Overwritten(); got != extra {
		t.Fatalf("Overwritten = %d, want %d", got, extra)
	}
	// A cold cursor must resync: reset=true, and only the newest journalCap
	// events are retained, still dense and in order.
	evs, next, reset := j.Since(0, 0)
	if !reset {
		t.Fatal("Since(0) after wraparound: reset = false, want true")
	}
	if len(evs) != journalCap {
		t.Fatalf("retained %d events, want %d", len(evs), journalCap)
	}
	if evs[0].Seq != extra+1 || evs[len(evs)-1].Seq != total {
		t.Fatalf("retained range [%d, %d], want [%d, %d]", evs[0].Seq, evs[len(evs)-1].Seq, extra+1, total)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained seqs not dense at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	if next != total {
		t.Fatalf("next = %d, want %d", next, total)
	}
	// A warm cursor inside the retained range pages without reset.
	evs, next, reset = j.Since(total-5, 2)
	if reset || len(evs) != 2 || evs[0].Seq != total-4 || next != total-3 {
		t.Fatalf("Since(total-5, 2) = %d events, next %d, reset %v", len(evs), next, reset)
	}
}

func TestJournalSinceCursorAheadResyncs(t *testing.T) {
	j := newJournalForTest()
	j.Emit(KindEpoch, "dms", "", 0, 1, "")
	// A cursor from before a restart (ahead of this journal) must reset and
	// land the consumer on the current tail, not loop forever.
	evs, next, reset := j.Since(100, 0)
	if !reset {
		t.Fatal("cursor ahead of journal: reset = false, want true")
	}
	if len(evs) != 1 || next != 1 {
		t.Fatalf("resync returned %d events, next %d; want 1 event, next 1", len(evs), next)
	}
}

func TestJournalConcurrentEmitWhileRead(t *testing.T) {
	j := newJournalForTest()
	const writers, perWriter = 4, journalCap / 2 // the ring wraps under the readers
	stop := make(chan struct{})
	var readers sync.WaitGroup
	// Readers hammer every read path while writers append. Pages must stay
	// dense even as the ring wraps underneath them.
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs, next, _ := j.Since(cursor, 32)
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq != evs[i-1].Seq+1 {
						t.Errorf("non-dense page: %d then %d", evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
				cursor = next
				j.KindCounts()
				j.CountKindSince(KindBreaker, 0)
				j.Overwritten()
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Emit(KindBreaker, "client", "", uint64(w), int64(i), "open")
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if j.Seq() != writers*perWriter {
		t.Fatalf("Seq = %d, want %d", j.Seq(), writers*perWriter)
	}
	if got := j.KindCounts()["breaker"]; got != writers*perWriter {
		t.Fatalf("KindCounts[breaker] = %d, want %d", got, writers*perWriter)
	}
}

func TestAppendZeroAlloc(t *testing.T) {
	j := newJournalForTest()
	ev := Event{Kind: KindRetry, Source: "client", Op: "stat", Trace: 1, Value: 2, Detail: "fms-0"}
	allocs := testing.AllocsPerRun(1000, func() {
		j.Append(ev)
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f objects per call, want 0", allocs)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if j.Emit(KindBreaker, "x", "", 0, 0, "") != 0 {
		t.Error("nil Emit returned nonzero seq")
	}
	if j.Seq() != 0 || j.Overwritten() != 0 {
		t.Error("nil accessors returned nonzero")
	}
	if evs, _, _ := j.Since(0, 0); evs != nil {
		t.Error("nil Since returned events")
	}
	if j.KindCounts() != nil {
		t.Error("nil KindCounts returned data")
	}
	if j.CountKindSince(KindBreaker, 0) != 0 {
		t.Error("nil CountKindSince returned nonzero")
	}
}

func TestEventMarshalJSON(t *testing.T) {
	ev := Event{Seq: 3, TimeNS: 42, Kind: KindBreaker, Source: "client", Trace: 0xdeadbeef, Detail: "fms-0 open"}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"kind":"breaker"`) {
		t.Errorf("kind not rendered as name: %s", s)
	}
	if !strings.Contains(s, `"trace":"0xdeadbeef"`) {
		t.Errorf("trace not rendered as hex: %s", s)
	}
}

func TestJournalRegisterMetrics(t *testing.T) {
	j := newJournalForTest()
	j.Emit(KindBreaker, "client", "", 0, 0, "open")
	j.Emit(KindBreaker, "client", "", 0, 0, "closed")
	for i := 0; i < journalCap+2; i++ {
		j.Emit(KindLeaseRecall, "dms", "", 0, int64(i), "/d")
	}
	reg := telemetry.NewRegistry()
	j.registerMetrics(reg)
	var breaker, overwritten float64
	for _, m := range reg.Snapshot().Metrics {
		switch m.Name {
		case MetricEvents:
			if strings.Contains(m.Labels, `kind="breaker"`) {
				breaker = m.Value
			}
		case MetricOverwritten:
			overwritten = m.Value
		}
	}
	if breaker != 2 {
		t.Errorf("%s{kind=breaker} = %v, want 2", MetricEvents, breaker)
	}
	if overwritten != 4 {
		t.Errorf("%s = %v, want 4", MetricOverwritten, overwritten)
	}
}

func TestWindowRollEmitterCoalesces(t *testing.T) {
	j := newJournalForTest()
	hook := windowRollHook(j, "dms", time.Hour)
	for i := 0; i < 10; i++ {
		hook("locofs_rpc_service_seconds", 1)
	}
	if got := j.KindCounts()["window_roll"]; got != 1 {
		t.Fatalf("window_roll events = %d, want 1 (coalesced)", got)
	}
}

// TestWindowRollFollowsConfiguredWidth: a registry with 20 ms windows
// journals a rollover per window. The parent commit coalesced rollovers to
// the 10 s default width whatever the window, so ~10 rotations journaled
// one event.
func TestWindowRollFollowsConfiguredWidth(t *testing.T) {
	const width = 20 * time.Millisecond
	p := New(Config{Name: "dms", Window: telemetry.WindowConfig{Width: width}})
	w := p.For("dms", Export{}).Reg.Windowed("locofs_rpc_service_seconds", telemetry.L("op", "Mkdir"))
	for end := time.Now().Add(12 * width); time.Now().Before(end); time.Sleep(width / 10) {
		w.Record(time.Microsecond)
	}
	if got := p.Journal.KindCounts()["window_roll"]; got < 3 {
		t.Fatalf("window_roll events over ~12 windows of %v = %d, want one per window", width, got)
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	j := newJournalForTest()
	ev := Event{Kind: KindRetry, Source: "client", Op: "stat", Trace: 1, Value: 2, Detail: "fms-0"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Append(ev)
	}
}

func BenchmarkJournalAppendParallel(b *testing.B) {
	j := newJournalForTest()
	ev := Event{Kind: KindRetry, Source: "client", Op: "stat", Trace: 1, Value: 2, Detail: "fms-0"}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			j.Append(ev)
		}
	})
}
