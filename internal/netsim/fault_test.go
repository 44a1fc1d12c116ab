package netsim

import (
	"testing"
	"time"

	"locofs/internal/wire"
)

// faultEnd wraps one pipe end with a single persistent receiver goroutine,
// so a timed-out wait does not leak a Recv that would steal the next
// message.
type faultEnd struct {
	Conn
	in chan *wire.Msg
}

func newFaultEnd(c Conn) *faultEnd {
	e := &faultEnd{Conn: c, in: make(chan *wire.Msg, 64)}
	go func() {
		for {
			m, err := c.Recv()
			if err != nil {
				close(e.in)
				return
			}
			e.in <- m
		}
	}()
	return e
}

// recvOrTimeout reports whether a message arrives within d.
func (e *faultEnd) recvOrTimeout(d time.Duration) (*wire.Msg, bool) {
	select {
	case m, ok := <-e.in:
		return m, ok && m != nil
	case <-time.After(d):
		return nil, false
	}
}

// faultPair dials one client↔server pipe on a fresh network, returning the
// network (for SetFault) and both ends.
func faultPair(t *testing.T) (*Network, *faultEnd, *faultEnd) {
	t.Helper()
	n := NewNetwork(Loopback)
	t.Cleanup(func() { n.Close() })
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := n.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	return n, newFaultEnd(client), newFaultEnd(<-accepted)
}

func TestFaultBlackholeEatsBothDirections(t *testing.T) {
	n, client, server := faultPair(t)
	n.SetFault("srv", FaultConfig{Blackhole: true})
	// Sends report success — like a real network whose far end went dark.
	if err := client.Send(&wire.Msg{ID: 1}); err != nil {
		t.Fatalf("blackholed send failed: %v", err)
	}
	if err := server.Send(&wire.Msg{ID: 2}); err != nil {
		t.Fatalf("blackholed send failed: %v", err)
	}
	if _, ok := server.recvOrTimeout(50 * time.Millisecond); ok {
		t.Error("server received a blackholed message")
	}
	if _, ok := client.recvOrTimeout(50 * time.Millisecond); ok {
		t.Error("client received a blackholed message")
	}
	// Clearing the fault restores delivery on the same connection.
	n.ClearFault("srv")
	if err := client.Send(&wire.Msg{ID: 3}); err != nil {
		t.Fatal(err)
	}
	m, ok := server.recvOrTimeout(time.Second)
	if !ok || m.ID != 3 {
		t.Fatalf("delivery after ClearFault: got %v, %v", m, ok)
	}
}

func TestFaultDropsAreDirectionalAndCounted(t *testing.T) {
	n, client, server := faultPair(t)
	n.SetFault("srv", FaultConfig{DropRequests: 1})
	if err := client.Send(&wire.Msg{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := server.recvOrTimeout(50 * time.Millisecond); ok {
		t.Error("first request should have been dropped")
	}
	// The countdown is spent: the second request gets through.
	if err := client.Send(&wire.Msg{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if m, ok := server.recvOrTimeout(time.Second); !ok || m.ID != 2 {
		t.Fatalf("second request: got %v, %v", m, ok)
	}
	// Responses were never affected.
	if err := server.Send(&wire.Msg{ID: 9}); err != nil {
		t.Fatal(err)
	}
	if m, ok := client.recvOrTimeout(time.Second); !ok || m.ID != 9 {
		t.Fatalf("response: got %v, %v", m, ok)
	}
}

func TestFaultExtraDelay(t *testing.T) {
	n, client, server := faultPair(t)
	const extra = 30 * time.Millisecond
	n.SetFault("srv", FaultConfig{ExtraDelay: extra})
	t0 := time.Now()
	if err := client.Send(&wire.Msg{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := server.recvOrTimeout(time.Second); !ok {
		t.Fatal("delayed message never arrived")
	}
	if d := time.Since(t0); d < extra {
		t.Errorf("message arrived after %v, want >= %v", d, extra)
	}
}

func TestFaultDisconnectAfter(t *testing.T) {
	n, client, server := faultPair(t)
	n.SetFault("srv", FaultConfig{DisconnectAfter: 2})
	if err := client.Send(&wire.Msg{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if m, ok := server.recvOrTimeout(time.Second); !ok || m.ID != 1 {
		t.Fatalf("pre-disconnect message: got %v, %v", m, ok)
	}
	// The second accepted message fires the reset: both ends observe close.
	if err := client.Send(&wire.Msg{ID: 2}); err != ErrClosed {
		t.Fatalf("disconnecting send err = %v, want ErrClosed", err)
	}
	if err := client.Send(&wire.Msg{ID: 3}); err != ErrClosed {
		t.Fatalf("send after disconnect err = %v, want ErrClosed", err)
	}
	if err := server.Send(&wire.Msg{ID: 4}); err != ErrClosed {
		t.Fatalf("server send after disconnect err = %v, want ErrClosed", err)
	}
	// New connections to the same address work (the countdown fired once).
	c2, err := n.Dial("srv")
	if err != nil {
		t.Fatalf("redial after disconnect: %v", err)
	}
	c2.Close()
}

func TestFaultDropEveryN(t *testing.T) {
	n, client, server := faultPair(t)
	n.SetFault("srv", FaultConfig{DropEveryN: 3})
	got := 0
	for i := 1; i <= 9; i++ {
		if err := client.Send(&wire.Msg{ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, ok := server.recvOrTimeout(100 * time.Millisecond); !ok {
			break
		}
		got++
	}
	if got != 6 {
		t.Errorf("delivered %d of 9 messages with DropEveryN=3, want 6", got)
	}
}
