package client

import (
	"testing"

	"locofs/internal/dms"
	"locofs/internal/fms"
	"locofs/internal/netsim"
	"locofs/internal/objstore"
	"locofs/internal/rpc"
	"locofs/internal/wire"
)

// TestLeaseCoherenceOverTCP runs the stale-lease detection flow over real
// TCP sockets — the deployment mode of cmd/locofsd: a reader caches
// directory state, a writer mutates it, the reader observes the bumped
// recall sequence stamped on an unrelated response header, and its next
// access must re-resolve instead of serving the stale entry — with the
// OpLeaseRecall catch-up pipelined behind the lookup in one group over the
// socket, so the reader's applied watermark catches up.
func TestLeaseCoherenceOverTCP(t *testing.T) {
	t.Run("batched", testLeaseCoherenceOverTCP)
}

func testLeaseCoherenceOverTCP(t *testing.T) {
	listen := func(attach func(*rpc.Server)) string {
		l, err := netsim.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rs := rpc.NewServer()
		attach(rs)
		go rs.Serve(l)
		t.Cleanup(rs.Shutdown)
		return l.Addr()
	}
	dmsAddr := listen(soloDMS(dms.New(dms.Options{})))
	fmsAddr := listen(fms.New(fms.Options{ServerID: 1}).Attach)
	ossAddr := listen(objstore.New(nil).Attach)

	dial := func() *Client {
		c, err := Dial(Config{
			Dialer:   netsim.TCPDialer{},
			DMSAddr:  dmsAddr,
			FMSAddrs: []string{fmsAddr},
			OSSAddrs: []string{ossAddr},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	reader, writer := dial(), dial()

	for _, p := range []string{"/d", "/obs"} {
		if err := writer.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	// Reader caches the attr and a negative entry, both over TCP.
	if a, err := reader.StatDir("/d"); err != nil || a.Mode&0o777 != 0o755 {
		t.Fatalf("stat over tcp: %+v, %v", a, err)
	}
	if _, err := reader.StatDir("/d/x"); wire.StatusOf(err) != wire.StatusNotFound {
		t.Fatalf("want ENOENT over tcp, got %v", err)
	}
	trips := reader.Trips()
	if _, err := reader.StatDir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.StatDir("/d/x"); wire.StatusOf(err) != wire.StatusNotFound {
		t.Fatalf("want cached ENOENT, got %v", err)
	}
	if reader.Trips() != trips {
		t.Fatal("repeat accesses not served from cache over tcp")
	}

	// Writer invalidates both; its grants are live so the DMS publishes.
	if err := writer.ChmodDir("/d", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := writer.Mkdir("/d/x", 0o755); err != nil {
		t.Fatal(err)
	}

	// The reader sees the new sequence stamped on an unrelated response's
	// 61-byte header, detects its entries as possibly stale, and
	// re-resolves both on next access.
	if _, err := reader.StatDir("/obs"); err != nil {
		t.Fatal(err)
	}
	if a, err := reader.StatDir("/d"); err != nil || a.Mode&0o777 != 0o700 {
		t.Fatalf("stale attr over tcp: %+v, %v", a, err)
	}
	if _, err := reader.StatDir("/d/x"); err != nil {
		t.Fatalf("stale ENOENT over tcp: %v", err)
	}
	d := reader.CacheDetail()
	if d.StaleMisses == 0 {
		t.Error("freshness gate never fired over tcp")
	}
	if d.AppliedSeq != d.MaxSeq {
		t.Errorf("reader not caught up over tcp: applied %d, observed %d", d.AppliedSeq, d.MaxSeq)
	}
}
