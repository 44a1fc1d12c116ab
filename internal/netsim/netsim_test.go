package netsim

import (
	"sync"
	"testing"
	"time"

	"locofs/internal/wire"
)

func TestDialAndExchange(t *testing.T) {
	n := NewNetwork(Loopback)
	defer n.Close()
	l, err := n.Listen("dms")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		m, err := conn.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		m.IsResp = true
		conn.Send(m)
	}()
	c, err := n.Dial("dms")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&wire.Msg{ID: 1, Op: wire.OpPing, Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 || !resp.IsResp {
		t.Errorf("resp = %+v", resp)
	}
	<-done
}

func TestDialUnknownAddr(t *testing.T) {
	n := NewNetwork(Loopback)
	defer n.Close()
	if _, err := n.Dial("nowhere"); err == nil {
		t.Error("Dial to unknown address succeeded")
	}
}

func TestDoubleListenRejected(t *testing.T) {
	n := NewNetwork(Loopback)
	defer n.Close()
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); err == nil {
		t.Error("second Listen on same address succeeded")
	}
}

func TestLatencyInjection(t *testing.T) {
	rtt := 2 * time.Millisecond
	n := NewNetwork(LinkConfig{RTT: rtt})
	defer n.Close()
	l, _ := n.Listen("s")
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			m.IsResp = true
			conn.Send(m)
		}
	}()
	c, err := n.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	start := time.Now()
	for i := 0; i < rounds; i++ {
		c.Send(&wire.Msg{ID: uint64(i), Op: wire.OpPing})
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < rounds*rtt {
		t.Errorf("%d synchronous round trips took %v, want >= %v", rounds, elapsed, rounds*rtt)
	}
	if elapsed > 10*rounds*rtt {
		t.Errorf("round trips took %v — far above the configured latency", elapsed)
	}
}

func TestBandwidthDelay(t *testing.T) {
	// 1 MB/s: a 10 KB message should take >= 10 ms one way.
	n := NewNetwork(LinkConfig{Bandwidth: 1e6})
	defer n.Close()
	l, _ := n.Listen("s")
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		m, err := conn.Recv()
		if err != nil {
			return
		}
		m.IsResp = true
		m.Body = nil
		conn.Send(m)
	}()
	c, _ := n.Dial("s")
	start := time.Now()
	c.Send(&wire.Msg{ID: 1, Op: wire.OpPing, Body: make([]byte, 10<<10)})
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("10KB at 1MB/s took %v, want >= 10ms", elapsed)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	n := NewNetwork(Loopback)
	defer n.Close()
	l, _ := n.Listen("s")
	go l.Accept()
	c, _ := n.Dial("s")
	errc := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Errorf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestPeerCloseDrainsInFlight(t *testing.T) {
	n := NewNetwork(Loopback)
	defer n.Close()
	l, _ := n.Listen("s")
	var server Conn
	accepted := make(chan struct{})
	go func() {
		server, _ = l.Accept()
		close(accepted)
	}()
	c, _ := n.Dial("s")
	<-accepted
	server.Send(&wire.Msg{ID: 9, IsResp: true})
	server.Close()
	m, err := c.Recv()
	if err != nil || m.ID != 9 {
		t.Errorf("in-flight message lost on peer close: %v %v", m, err)
	}
	if _, err := c.Recv(); err != ErrClosed {
		t.Errorf("subsequent Recv = %v, want ErrClosed", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := NewNetwork(Loopback)
	defer n.Close()
	l, _ := n.Listen("s")
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			m.IsResp = true
			conn.Send(m)
		}
	}()
	c, _ := n.Dial("s")
	const senders = 8
	var wg sync.WaitGroup
	sent := make(chan struct{}, senders*50)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Send(&wire.Msg{ID: uint64(w*1000 + i), Op: wire.OpPing}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				sent <- struct{}{}
			}
		}(w)
	}
	got := 0
	for got < senders*50 {
		if _, err := c.Recv(); err != nil {
			t.Fatalf("recv: %v", err)
		}
		got++
	}
	wg.Wait()
}

func TestNetworkCloseStopsEverything(t *testing.T) {
	n := NewNetwork(Loopback)
	l, _ := n.Listen("s")
	n.Close()
	if _, err := l.Accept(); err != ErrClosed {
		t.Errorf("Accept after network close = %v", err)
	}
	if _, err := n.Dial("s"); err != ErrClosed {
		t.Errorf("Dial after network close = %v", err)
	}
	if _, err := n.Listen("x"); err != ErrClosed {
		t.Errorf("Listen after network close = %v", err)
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			m.IsResp = true
			conn.Send(m)
		}
	}()
	c, err := TCPDialer{}.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&wire.Msg{ID: 7, Op: wire.OpPing, Body: []byte("over tcp")}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil || m.ID != 7 || string(m.Body) != "over tcp" {
		t.Errorf("tcp round trip = %+v, %v", m, err)
	}
}

// TestClosedListenerResetsBacklog: a connection dialed but never accepted
// before its listener closed is closed, as TCP resets it, so its dialer's
// Recv fails instead of waiting forever. A dial after the close is refused.
func TestClosedListenerResetsBacklog(t *testing.T) {
	n := NewNetwork(Loopback)
	defer n.Close()
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	got := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		if err == nil {
			t.Error("Recv on a never-accepted connection returned a message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never-accepted connection still open 2 s after its listener closed")
	}
	if err := c.Send(&wire.Msg{ID: 1, Op: wire.OpPing}); err == nil {
		t.Error("Send on a never-accepted connection succeeded")
	}
	if _, err := n.Dial("srv"); err == nil {
		t.Error("Dial to a closed listener succeeded")
	}
}

// TestDialRacingListenerCloseNeverStrands: however a Dial's hand-off races
// the listener's close, the dialer either is refused or holds a connection
// that the close ended; it never holds one nobody will accept.
func TestDialRacingListenerCloseNeverStrands(t *testing.T) {
	const dialers = 4
	for i := 0; i < 200; i++ {
		n := NewNetwork(Loopback)
		l, err := n.Listen("srv")
		if err != nil {
			t.Fatal(err)
		}
		dialed := make(chan Conn, dialers)
		for d := 0; d < dialers; d++ {
			go func() {
				c, _ := n.Dial("srv")
				dialed <- c
			}()
		}
		time.Sleep(time.Duration(i%50) * time.Microsecond)
		l.Close()
		for d := 0; d < dialers; d++ {
			if c := <-dialed; c != nil {
				if err := c.Send(&wire.Msg{ID: 1, Op: wire.OpPing}); err == nil {
					t.Fatalf("round %d: a connection dialed across the close is still open", i)
				}
			}
		}
		n.Close()
	}
}
