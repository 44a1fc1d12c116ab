package partition

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locofs/internal/dms"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/rpc"
	"locofs/internal/wire"
)

// TestConcurrentMutationsReplicateIdentically: mutations racing through an
// r=3 leader reach each follower in log order, so after 8 concurrent
// writers every replica's store is byte-identical and no follower was
// excluded for an out-of-order append.
func TestConcurrentMutationsReplicateIdentically(t *testing.T) {
	ts := startShard(t, onePartitionMap("l", "f1", "f2"))
	const writers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := rpc.Dial(ts.net, "l")
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			do := func(i int, op wire.Op, body []byte) {
				req := uint64(w+1)<<24 | uint64(i+1)
				if st, _, _, err := cl.Do(rpc.CallSpec{Op: op, Body: body, Req: req}); err != nil || st != wire.StatusOK {
					t.Errorf("writer %d op %d: %v %v", w, i, st, err)
				}
			}
			dir := fmt.Sprintf("/w%d", w)
			do(0, wire.OpMkdir, mkdirBody(dir))
			for i := 1; i <= each; i++ {
				do(i, wire.OpMkdir, mkdirBody(fmt.Sprintf("%s/d%d", dir, i)))
			}
		}(w)
	}
	wg.Wait()
	if ex := ts.nodes["l"].Excluded(); len(ex) != 0 {
		t.Fatalf("followers excluded: %v", ex)
	}
	want := dumpStore(ts.stores["l"])
	if len(want) < writers*(each+1) {
		t.Fatalf("leader holds %d keys", len(want))
	}
	for _, f := range []string{"f1", "f2"} {
		if n, l := ts.nodes[f].LogLen(), ts.nodes["l"].LogLen(); n != l {
			t.Errorf("%s log length %d, leader %d", f, n, l)
		}
		if got := dumpStore(ts.stores[f]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s store differs from the leader's", f)
		}
	}
}

// countingListener serves TCP connections whose socket writes it counts.
type countingListener struct {
	l      net.Listener
	writes *atomic.Int64
}

func (cl countingListener) Accept() (netsim.Conn, error) {
	c, err := cl.l.Accept()
	if err != nil {
		return nil, err
	}
	return netsim.NewTCPConn(countingConn{c, cl.writes}), nil
}
func (cl countingListener) Close() error { return cl.l.Close() }
func (cl countingListener) Addr() string { return cl.l.Addr().String() }

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestReplicationBurstAcksInOneWrite: a follower applies OpLogAppend on
// its connection's reader, so k appends that arrive in one read are acked in
// one socket write (two if the read splits them), not one write each.
func TestReplicationBurstAcksInOneWrite(t *testing.T) {
	const k = 32
	n := New(Config{
		PID: 0, Index: 1, Map: onePartitionMap("l", "f"),
		DMS:    dms.New(dms.Options{Store: kv.NewBTreeStore(), ServerID: 0x80000000}),
		Dialer: netsim.NewNetwork(netsim.Loopback), // the leader is never dialed
	})
	defer n.Close()
	rs := rpc.NewServer()
	n.Attach(rs)
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	go rs.Serve(countingListener{tl, &writes})
	defer rs.Shutdown()
	sock, err := net.Dial("tcp", tl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := netsim.NewTCPConn(sock)
	defer conn.Close()

	for i := 0; i < k; i++ {
		le := &wire.LogEntry{Index: uint64(i), TS: 1, Op: wire.OpMkdir, Body: mkdirBody(fmt.Sprintf("/d%d", i))}
		if err := conn.SendMore(&wire.Msg{ID: uint64(i + 1), Op: wire.OpLogAppend, Body: wire.EncodeLogAppend(0, le)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Status != wire.StatusOK {
			t.Fatalf("append %d: %v", m.ID, m.Status)
		}
	}
	if got := n.LogLen(); got != k {
		t.Fatalf("follower log length %d, want %d", got, k)
	}
	if w := writes.Load(); w > 2 {
		t.Fatalf("%d appends in one burst cost %d ack writes, want at most 2", k, w)
	}
}

// TestPromotionDeposedLeaderAppliesInline: a deposed leader whose own round
// is still waiting on a dark follower receives its successor's next append
// on its connection reader. The append waits for that round, which ends
// within one replication timeout, and then applies: no deadlock, nothing
// lost.
func TestPromotionDeposedLeaderAppliesInline(t *testing.T) {
	// l's own round ends within its timeout; the successor's append to l,
	// started later, has a longer one, so it cannot expire first however
	// little time the failover takes.
	const lTimeout, repTimeout = 200 * time.Millisecond, time.Second
	ts := startShard(t, onePartitionMap("l", "f1", "f2"), func(cfg *Config) {
		cfg.RepTimeout = repTimeout
		if cfg.Index == 0 {
			cfg.RepTimeout = lTimeout
		}
	})
	ts.net.SetFault("f2", netsim.FaultConfig{Blackhole: true})
	first := make(chan wire.Status, 1)
	go func() {
		cl, err := rpc.Dial(ts.net, "l")
		if err != nil {
			first <- wire.StatusIO
			return
		}
		defer cl.Close()
		st, _, _, err := cl.Do(rpc.CallSpec{Op: wire.OpMkdir, Body: mkdirBody("/a"), Req: 1})
		if err != nil {
			st = wire.StatusIO
		}
		first <- st
	}()
	// f1 has the entry; l's round still waits for f2.
	for deadline := time.Now().Add(lTimeout); ts.nodes["f1"].LogLen() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("f1 never received the first append")
		}
	}
	pm2 := &wire.ClusterMap{Ver: 2, Groups: [][]string{{"f1", "l", "f2"}}}
	for addr, idx := range map[string]int{"f1": 0, "l": 1} {
		if st, _ := ts.call(t, addr, wire.OpSetMap, wire.EncodeSetMap(pm2, wire.DMSCoords(0, idx)), 0); st != wire.StatusOK {
			t.Fatalf("map push to %s: %v", addr, st)
		}
	}
	start := time.Now()
	cl, err := rpc.Dial(ts.net, "f1")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, _, _, err := cl.Do(rpc.CallSpec{Op: wire.OpMkdir, Body: mkdirBody("/b"), Req: 2, Timeout: 5 * repTimeout})
	if err != nil || st != wire.StatusOK {
		t.Fatalf("mkdir at the successor: %v %v", st, err)
	}
	if el := time.Since(start); el > 2*repTimeout {
		t.Fatalf("the successor's mutation took %v", el)
	}
	if st := <-first; st != wire.StatusOK {
		t.Fatalf("the deposed leader's own mutation: %v", st)
	}
	if ex := ts.nodes["f1"].Excluded(); len(ex) != 1 || ex[0] != "f2" {
		t.Fatalf("successor excluded %v, want only the dark f2", ex)
	}
	if st, _ := ts.call(t, "l", wire.OpStatDir, statBody("/b"), 0); st != wire.StatusOK {
		t.Fatalf("the deposed leader lacks the successor's entry: %v", st)
	}
	if got, want := dumpStore(ts.stores["l"]), dumpStore(ts.stores["f1"]); !reflect.DeepEqual(got, want) {
		t.Fatal("deposed leader and successor differ")
	}
}
