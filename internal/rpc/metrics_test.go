package rpc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/telemetry"
	"locofs/internal/wire"
)

// startInstrumented runs a server with a telemetry registry on an
// in-process network and returns a connected client.
func startInstrumented(t *testing.T, reg *telemetry.Registry, service ServiceFunc, configure func(*Server)) *Client {
	t.Helper()
	net := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { net.Close() })
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Obs: &obs.Handle{Reg: reg}, Service: service})
	if configure != nil {
		configure(s)
	}
	go s.Serve(l)
	t.Cleanup(s.Shutdown)
	c, err := Dial(net, "srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerPerOpMetrics(t *testing.T) {
	reg := telemetry.NewRegistry(telemetry.L("server", "test"))
	// A deterministic modeled service time so histogram contents are
	// predictable: 1 ms per Mkdir, 2 ms per anything else.
	service := func(op wire.Op, run func()) time.Duration {
		run()
		if op == wire.OpMkdir {
			return time.Millisecond
		}
		return 2 * time.Millisecond
	}
	c := startInstrumented(t, reg, service, func(s *Server) {
		s.Handle(wire.OpMkdir, func(body []byte) (wire.Status, []byte) {
			return wire.StatusOK, nil
		})
		s.Handle(wire.OpStatFile, func(body []byte) (wire.Status, []byte) {
			return wire.StatusNotFound, nil
		})
	})

	const mkdirs, stats = 7, 3
	for i := 0; i < mkdirs; i++ {
		if _, _, err := c.Call(wire.OpMkdir, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < stats; i++ {
		if st, _, err := c.Call(wire.OpStatFile, nil); err != nil || st != wire.StatusNotFound {
			t.Fatalf("stat: %v %v", st, err)
		}
	}

	snap := reg.Snapshot()
	find := func(name, op string) (telemetry.Metric, bool) {
		for _, m := range snap.Metrics {
			if m.Name == name && m.Labels == `{op="`+op+`",server="test"}` {
				return m, true
			}
		}
		return telemetry.Metric{}, false
	}

	if m, ok := find(MetricRequests, "Mkdir"); !ok || m.Value != mkdirs {
		t.Errorf("Mkdir requests = %+v (found=%v), want %d", m, ok, mkdirs)
	}
	if m, ok := find(MetricRequests, "StatFile"); !ok || m.Value != stats {
		t.Errorf("StatFile requests = %+v (found=%v), want %d", m, ok, stats)
	}
	if m, ok := find(MetricErrors, "StatFile"); !ok || m.Value != stats {
		t.Errorf("StatFile errors = %+v (found=%v), want %d", m, ok, stats)
	}
	if m, ok := find(MetricErrors, "Mkdir"); !ok || m.Value != 0 {
		t.Errorf("Mkdir errors = %+v, want 0", m)
	}

	mk, ok := find(MetricService, "Mkdir")
	if !ok || mk.Hist.Count != mkdirs {
		t.Fatalf("Mkdir service histogram = %+v (found=%v)", mk, ok)
	}
	// All Mkdir observations are exactly 1 ms (modeled), so max is exact
	// and the median lands in the 1 ms log bucket.
	if mk.Hist.Max != time.Millisecond {
		t.Errorf("Mkdir service max = %v, want 1ms", mk.Hist.Max)
	}
	if p50 := mk.Hist.Quantile(0.5); p50 < 512*time.Microsecond || p50 > time.Millisecond {
		t.Errorf("Mkdir service p50 = %v, want within [512µs, 1ms]", p50)
	}
	st, _ := find(MetricService, "StatFile")
	if st.Hist.Max != 2*time.Millisecond {
		t.Errorf("StatFile service max = %v, want 2ms", st.Hist.Max)
	}

	if q, ok := find(MetricQueue, "Mkdir"); !ok || q.Hist.Count != mkdirs {
		t.Errorf("Mkdir queue histogram count = %d (found=%v), want %d", q.Hist.Count, ok, mkdirs)
	}
}

func TestServerMetricsConcurrent(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := startInstrumented(t, reg, nil, func(s *Server) {
		s.Handle(wire.OpMkdir, func(body []byte) (wire.Status, []byte) {
			return wire.StatusOK, body
		})
	})
	const workers = 8
	const each = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := c.Call(wire.OpMkdir, []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	for _, m := range snap.Metrics {
		if m.Name == MetricRequests && m.Labels == `{op="Mkdir"}` {
			if m.Value != workers*each {
				t.Errorf("requests = %v, want %d", m.Value, workers*each)
			}
			return
		}
	}
	t.Fatal("Mkdir request counter not found")
}

func TestServerEchoesTrace(t *testing.T) {
	net := netsim.NewNetwork(netsim.Loopback)
	defer net.Close()
	l, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	go s.Serve(l)
	defer s.Shutdown()

	// The echo is on the wire, not surfaced by Do itself; observe
	// it at the transport by wrapping a raw connection.
	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Msg{ID: 1, Op: wire.OpPing, Trace: 0xabc}); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsResp || resp.Trace != 0xabc {
		t.Errorf("response = %+v, want echoed trace 0xabc", resp)
	}
	conn.Close()
}

func TestUninstrumentedServerUnaffected(t *testing.T) {
	// No registry installed: requests must flow exactly as before.
	c := startInstrumented(t, nil, nil, nil)
	if st, body, err := c.Call(wire.OpPing, []byte("hi")); err != nil || st != wire.StatusOK || string(body) != "hi" {
		t.Fatalf("ping = %v %q %v", st, body, err)
	}
}

// TestQueueWaitSpansBurst: requests that arrive in one read behind a slow
// one are answered on the same reader after it, and their queue wait says
// so — it runs from the read that brought their bytes in, not from their
// own decode.
func TestQueueWaitSpansBurst(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{Obs: &obs.Handle{Reg: reg}})
	s.Handle(wire.OpMkdir, func([]byte) (wire.Status, []byte) {
		time.Sleep(20 * time.Millisecond)
		return wire.StatusOK, nil
	})
	fast := []wire.Op{wire.OpStatFile, wire.OpOpenFile, wire.OpAccessFile}
	for _, op := range fast {
		s.Handle(op, func([]byte) (wire.Status, []byte) { return wire.StatusOK, nil })
	}
	var writes atomic.Int64
	c, br := serveTCP(t, s, &writes)
	msgs := []*wire.Msg{{ID: 1, Op: wire.OpMkdir}}
	for i, op := range fast {
		msgs = append(msgs, &wire.Msg{ID: uint64(i + 2), Op: op})
	}
	if _, err := c.Write(frames(t, msgs...)); err != nil {
		t.Fatal(err)
	}
	for range msgs {
		if _, err := wire.ReadMsg(br); err != nil {
			t.Fatal(err)
		}
	}
	hist := func(name string, op wire.Op) telemetry.Metric {
		for _, m := range reg.Snapshot().Metrics {
			if m.Name == name && m.Labels == `{op="`+op.String()+`"}` {
				return m
			}
		}
		t.Fatalf("no %s for %v", name, op)
		return telemetry.Metric{}
	}
	slow := hist(MetricService, wire.OpMkdir).Hist.Max
	third := hist(MetricQueue, fast[2])
	if third.Hist.Count != 1 || third.Hist.Max < slow {
		t.Errorf("third request behind a %v handler: queue %v (count %d), want >= %v",
			slow, third.Hist.Max, third.Hist.Count, slow)
	}
}
