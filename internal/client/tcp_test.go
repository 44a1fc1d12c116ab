package client

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"locofs/internal/dms"
	"locofs/internal/dms/partition"
	"locofs/internal/fms"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/rpc"
	"locofs/internal/wire"
)

// TestFullStackOverTCP runs the whole client/server stack over real TCP
// sockets — the deployment mode of cmd/locofsd.
func TestFullStackOverTCP(t *testing.T) {
	listen := func(attach func(*rpc.Server)) (string, *rpc.Server) {
		l, err := netsim.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rs := rpc.NewServer()
		attach(rs)
		go rs.Serve(l)
		t.Cleanup(rs.Shutdown)
		return l.Addr(), rs
	}
	dmsAddr, _ := listen(soloDMS(dms.New(dms.Options{})))
	fmsAddr1, _ := listen(fms.New(fms.Options{ServerID: 1}).Attach)
	fmsAddr2, _ := listen(fms.New(fms.Options{ServerID: 2}).Attach)
	ossAddr, _ := listen(objstore.New(nil).Attach)

	c, err := Dial(Config{
		Dialer:   netsim.TCPDialer{},
		DMSAddr:  dmsAddr,
		FMSAddrs: []string{fmsAddr1, fmsAddr2},
		OSSAddrs: []string{ossAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Mkdir("/tcp", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Create("/tcp/f"+string(rune('a'+i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := c.Open("/tcp/fa", true)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("tcp"), 5000)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !bytes.Equal(buf, payload) {
		t.Error("tcp data round trip mismatch")
	}
	ents, err := c.Readdir("/tcp")
	if err != nil || len(ents) != 20 {
		t.Errorf("readdir over tcp = %d entries, %v", len(ents), err)
	}
	if _, err := c.RenameDir("/tcp", "/tcp2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StatFile("/tcp2/fa"); err != nil {
		t.Errorf("stat after rename over tcp: %v", err)
	}
}

// TestFMSCrashSurfacesErrors: when a metadata server dies, operations
// routed to it fail promptly with a transport error instead of hanging;
// operations routed to surviving servers keep working.
func TestFMSCrashSurfacesErrors(t *testing.T) {
	n := netsim.NewNetwork(netsim.Loopback)
	t.Cleanup(func() { n.Close() })
	serve := func(addr string, attach func(*rpc.Server)) *rpc.Server {
		rs := rpc.NewServer()
		attach(rs)
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go rs.Serve(l)
		return rs
	}
	serve("dms", soloDMS(dms.New(dms.Options{})))
	fmsServers := []*rpc.Server{
		serve("fms-0", fms.New(fms.Options{ServerID: 1}).Attach),
		serve("fms-1", fms.New(fms.Options{ServerID: 2}).Attach),
	}
	serve("oss", objstore.New(nil).Attach)

	c, err := Dial(Config{
		Dialer:   n,
		DMSAddr:  "dms",
		FMSAddrs: []string{"fms-0", "fms-1"},
		OSSAddrs: []string{"oss"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Mkdir("/d", 0o755)

	// Find names landing on each FMS.
	parent, err := c.resolveDir("/d", opCtx{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var on0, on1 string
	for i := 0; on0 == "" || on1 == ""; i++ {
		name := fmt.Sprintf("probe%d", i)
		if c.view.Load().ring.Locate(fms.FileKey(parent.UUID(), name)) == 0 {
			if on0 == "" {
				on0 = name
			}
		} else if on1 == "" {
			on1 = name
		}
		if i > 200 {
			t.Fatal("could not find names for both servers")
		}
	}

	// Kill FMS 0. Its connection drops; calls to it must error out fast.
	fmsServers[0].Shutdown()
	// Give the client's reader a moment to observe the close.
	deadline := time.Now().Add(2 * time.Second)
	var errOn0 error
	for {
		errOn0 = c.Create("/d/"+on0, 0o644)
		if errOn0 != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if errOn0 == nil {
		t.Error("create on crashed FMS succeeded")
	}
	// The surviving FMS still serves.
	if err := c.Create("/d/"+on1, 0o644); err != nil {
		t.Errorf("create on surviving FMS failed: %v", err)
	}
	if _, err := c.StatFile("/d/" + on1); err != nil {
		t.Errorf("stat on surviving FMS failed: %v", err)
	}
	fmsServers[1].Shutdown()
}

// TestDropDMSReplicaOverTCP fails a replicated DMS over real TCP listeners
// using nothing but what `locofsd -role client -cmd "dropdms <addr>"` calls:
// the leader is closed, DropDMSReplica pushes the successor map, a retried
// mkdir replays its recorded response at the promoted follower, and clients
// dialed before the change converge — one by tripping over the dead leader,
// one purely from the map version an FMS stamps on its responses.
func TestDropDMSReplicaOverTCP(t *testing.T) {
	listen := func() *netsim.TCPListener {
		l, err := netsim.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	serve := func(l *netsim.TCPListener, attach func(*rpc.Server)) *rpc.Server {
		rs := rpc.NewServer()
		attach(rs)
		go rs.Serve(l)
		t.Cleanup(rs.Shutdown)
		return rs
	}
	// Both replica addresses go into the map before either node exists.
	ll, fl := listen(), listen()
	leader, follower := ll.Addr(), fl.Addr()
	pm, err := partition.NewMap([][]string{{leader, follower}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lrs *rpc.Server
	for idx, l := range []*netsim.TCPListener{ll, fl} {
		n := partition.New(partition.Config{
			Index: idx, Map: pm, Dialer: netsim.TCPDialer{},
			DMS: dms.New(dms.Options{ServerID: 0x80000000}),
		})
		t.Cleanup(n.Close)
		if rs := serve(l, n.Attach); idx == 0 {
			lrs = rs
		}
	}
	fl2, ol := listen(), listen()
	frs := serve(fl2, fms.New(fms.Options{ServerID: 1}).Attach)
	serve(ol, objstore.New(nil).Attach)
	cfg := Config{
		Dialer: netsim.TCPDialer{}, DMSAddr: leader,
		FMSAddrs: []string{fl2.Addr()}, OSSAddrs: []string{ol.Addr()},
		OpTimeout: 2 * time.Second,
	}
	tripper, watcher := dialTest(t, cfg), dialTest(t, cfg)
	if err := tripper.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tripper.Create("/a/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := watcher.StatFile("/a/f"); err != nil { // caches /a
		t.Fatal(err)
	}

	// A mkdir the leader executed, replicated and answered under dedup id 77.
	raw := func(addr string, req uint64) (wire.Status, []byte) {
		cl, err := rpc.Dial(netsim.TCPDialer{}, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		body := wire.NewEnc().Str("/retried").U32(0o755).U32(0).U32(0).Bytes()
		st, resp, _, err := cl.Do(rpc.CallSpec{Op: wire.OpMkdir, Body: body, Req: req, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatalf("mkdir at %s: %v", addr, err)
		}
		return st, resp
	}
	st, first := raw(leader, 77)
	if st != wire.StatusOK {
		t.Fatalf("mkdir at the leader: %v", st)
	}

	lrs.Shutdown()
	cfg.DMSAddr = follower // any live replica bootstraps the admin client
	m, unreached, err := dialTest(t, cfg).DropDMSReplica(leader)
	if err != nil {
		t.Fatalf("DropDMSReplica: %v", err)
	}
	if m.Ver != 2 || m.Leader(0) != follower || len(m.Groups[0]) != 1 || len(unreached) != 0 {
		t.Fatalf("installed map = %+v, unreached %v; want version 2 led by %s", m, unreached, follower)
	}
	if frs.MapVer() != 2 {
		t.Errorf("FMS holds map version %d after the push, want 2", frs.MapVer())
	}

	// The retry of the answered mkdir replays; a fresh attempt collides.
	if st, again := raw(follower, 77); st != wire.StatusOK || !bytes.Equal(again, first) {
		t.Errorf("retried mkdir at the promoted follower = %v (same body: %v), want the recorded OK", st, bytes.Equal(again, first))
	}
	if st, _ := raw(follower, 78); st != wire.StatusExist {
		t.Errorf("fresh mkdir of the same path = %v, want EEXIST", st)
	}

	// One client finds out the hard way: its leader is gone.
	if err := tripper.Mkdir("/after", 0o755); err != nil {
		t.Errorf("mkdir through the dead leader's successor: %v", err)
	}
	if got := tripper.Map(); got.Ver != 2 {
		t.Errorf("tripping client at map version %d, want 2", got.Ver)
	}
	// The other never talks to a DMS: /a is cached, so its stats go to the
	// FMS alone, whose responses carry version 2.
	deadline := time.Now().Add(5 * time.Second)
	for watcher.Map().Ver != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("watching client still at map version %d", watcher.Map().Ver)
		}
		if _, err := watcher.StatFile("/a/f"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := watcher.Map().Leader(0); got != follower {
		t.Errorf("watching client routes partition 0 to %s, want %s", got, follower)
	}
}
