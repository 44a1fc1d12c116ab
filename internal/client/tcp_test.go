package client

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"locofs/internal/dms"
	"locofs/internal/fms"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/rpc"
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
	parent, err := c.resolveDir("/d", opCtx{})
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
