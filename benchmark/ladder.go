package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"locofs"
	"locofs/internal/dms"
	"locofs/internal/fms"
	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/rpc"
	"locofs/internal/uuid"
	"locofs/internal/wire"
)

// The ladder times the calls into each layer's public functions in process,
// one rung per layer from the KV store up to a client operation, so that
// the end-to-end latency of a create or stat can be set against the cost of
// the KV operations under it (Fig 9 on the wall clock). Every rung runs a
// fixed iteration count — allocs/op must repeat exactly — several times
// over, and reports the median ns/op.

const ladderReps = 3

// rung runs fn(i) for i in [0,n) ladderReps times. It returns the median
// ns/op and the allocations per op, rounded to the nearest whole number so
// that the odd runtime-internal allocation does not flip the figure.
func rung(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	var ms runtime.MemStats
	for r := 0; r < ladderReps; r++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, math.Round(float64(ms.Mallocs-before)/float64(n)))
	}
	return median(ns), median(allocs)
}

// ladderResult maps a per-layer metric name to its value.
type ladderResult map[string]float64

// kvShape is the KV work one FMS request does, counted by an instrumented
// store; the x_kv ratios price it with the kv rungs.
type kvShape struct{ Gets, Puts, Patches, Appends, Deletes float64 }

// cost prices the shape with the hash-store rungs (the FMS runs on one).
// An append or delete is priced as a put: each is one keyed write.
func (s kvShape) cost(l ladderResult) float64 {
	return s.Gets*l["kv.hash_get_ns"] + (s.Puts+s.Appends+s.Deletes)*l["kv.hash_put_ns"] + s.Patches*l["kv.patch_ns"]
}

func shapeOf(after, before kv.CountersSnapshot, n int) kvShape {
	d := func(a, b uint64) float64 { return float64(a-b) / float64(n) }
	return kvShape{
		Gets: d(after.Gets, before.Gets), Puts: d(after.Puts, before.Puts), Patches: d(after.Patches, before.Patches),
		Appends: d(after.Appends, before.Appends), Deletes: d(after.Deletes, before.Deletes),
	}
}

// runLadder measures every rung. scale divides the iteration counts (-quick).
func runLadder(scale int) (res ladderResult, create, stat kvShape, err error) {
	res = ladderResult{}
	n := func(v int) int { return max(v/scale, 8) }
	ladderKV(res, n)
	ladderWire(res, n)
	if err = ladderConn(res, n); err != nil {
		return nil, create, stat, fmt.Errorf("ladder conn: %w", err)
	}
	if err = ladderRPC(res, n); err != nil {
		return nil, create, stat, fmt.Errorf("ladder rpc: %w", err)
	}
	create, stat = ladderFMS(res, n)
	ladderDMS(res, n)
	if err = ladderClient(res, n); err != nil {
		return nil, create, stat, fmt.Errorf("ladder client: %w", err)
	}
	return res, create, stat, nil
}

func key(i int) []byte { return []byte(fmt.Sprintf("k/%016x/%08d", uint64(i)*0x9e3779b97f4a7c15, i)) }

func ladderKV(res ladderResult, n func(int) int) {
	const keys = 10000
	val := bytes.Repeat([]byte{7}, 64)
	ks := make([][]byte, keys)
	for i := range ks {
		ks[i] = key(i)
	}
	for name, st := range map[string]kv.Store{"btree": kv.NewBTreeStore(), "hash": kv.NewHashStore()} {
		for _, k := range ks {
			st.Put(k, val)
		}
		res["kv."+name+"_get_ns"], _ = rung(n(20000), func(i int) { st.Get(ks[i%keys]) })
		res["kv."+name+"_put_ns"], _ = rung(n(20000), func(i int) { st.Put(ks[i%keys], val) })
	}
	hs := kv.NewHashStore()
	for _, k := range ks {
		hs.Put(k, val)
	}
	patch := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	res["kv.patch_ns"], _ = rung(n(20000), func(i int) { hs.PatchInPlace(ks[i%keys], 16, patch) })

	// One more dirent appended to a list already holding 16k of them.
	ent := bytes.Repeat([]byte{9}, 30)
	hs.Put([]byte("list"), bytes.Repeat(ent, 16384))
	res["kv.append_16k_ns"], _ = rung(n(200), func(int) { hs.AppendValue([]byte("list"), ent) })

	bt := kv.NewBTreeStore()
	for i := 0; i < 1000; i++ {
		bt.Put([]byte(fmt.Sprintf("/p0/%04d", i)), val)
	}
	res["kv.move_prefix_1k_ns"], _ = rung(n(40), func(i int) {
		bt.MovePrefix([]byte(fmt.Sprintf("/p%d/", i%2)), []byte(fmt.Sprintf("/p%d/", (i+1)%2)))
	})
}

// statRequest is the message a StatFile puts on the wire.
func statRequest(id uint64) *wire.Msg {
	body := wire.NewEnc().UUID(uuid.New(1, 42)).Str("f00001").Bytes()
	return &wire.Msg{ID: id, Op: wire.OpStatFile, Trace: 1, Body: body}
}

func ladderWire(res ladderResult, n func(int) int) {
	m := statRequest(1)
	var buf bytes.Buffer
	res["wire.write_msg_ns"], _ = rung(n(20000), func(int) {
		buf.Reset()
		_ = wire.WriteMsg(&buf, m) // a bytes.Buffer write cannot fail
	})
	frame := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(frame)
	res["wire.read_msg_ns"], res["wire.read_msg_allocs"] = rung(n(20000), func(int) {
		rd.Reset(frame)
		_, _ = wire.ReadMsg(rd) // the frame was just produced by WriteMsg
	})
	res["wire.stat_req_bytes"] = float64(m.WireSize())
}

// echo serves one connection by sending every message straight back.
func echo(l netsim.Listener, wg *sync.WaitGroup) {
	defer wg.Done()
	c, err := l.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		if c.Send(m) != nil {
			return
		}
	}
}

// connRungs times a message round trip on one connection, alone and with
// 16 messages in flight.
func connRungs(l netsim.Listener, d netsim.Dialer, n func(int) int) (rtt, allocs, inflight float64, err error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go echo(l, &wg)
	c, err := d.Dial(l.Addr())
	if err != nil {
		l.Close()
		wg.Wait()
		return 0, 0, 0, err
	}
	m := statRequest(1)
	rtt, allocs = rung(n(4000), func(int) {
		if err == nil {
			err = c.Send(m)
		}
		if err == nil {
			_, err = c.Recv()
		}
	})
	const depth = 16
	for i := 0; i < depth && err == nil; i++ {
		err = c.Send(m)
	}
	inflight, _ = rung(n(16000), func(int) {
		if err == nil {
			_, err = c.Recv()
		}
		if err == nil {
			err = c.Send(m)
		}
	})
	c.Close()
	l.Close()
	wg.Wait()
	return rtt, allocs, inflight, err
}

func ladderConn(res ladderResult, n func(int) int) error {
	nw := netsim.NewNetwork(netsim.Loopback)
	defer nw.Close()
	pl, err := nw.Listen("echo")
	if err != nil {
		return err
	}
	if res["netsim.pipe_rtt_ns"], _, _, err = connRungs(pl, nw, n); err != nil {
		return err
	}
	tl, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	res["netsim.tcp_rtt_ns"], res["netsim.tcp_rtt_allocs"], res["netsim.tcp_16inflight_ns"], err = connRungs(tl, netsim.TCPDialer{}, n)
	return err
}

// rpcRungs times a null-handler (Ping) call, alone and from 16 callers
// sharing the connection.
func rpcRungs(l netsim.Listener, d netsim.Dialer, n func(int) int) (rtt, allocs, inflight float64, err error) {
	srv := rpc.NewServer()
	go srv.Serve(l)
	defer srv.Shutdown()
	c, err := rpc.Dial(d, l.Addr())
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	var once sync.Once
	call := func(int) {
		if _, _, cerr := c.Call(wire.OpPing, nil); cerr != nil {
			once.Do(func() { err = cerr })
		}
	}
	rtt, allocs = rung(n(4000), call)
	const depth = 16
	per := n(16000) / depth
	inflight, _ = rung(1, func(int) {
		var wg sync.WaitGroup
		for g := 0; g < depth; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					call(i)
				}
			}()
		}
		wg.Wait()
	})
	return rtt, allocs, inflight / float64(per*depth), err
}

func ladderRPC(res ladderResult, n func(int) int) error {
	nw := netsim.NewNetwork(netsim.Loopback)
	defer nw.Close()
	pl, err := nw.Listen("null")
	if err != nil {
		return err
	}
	if res["rpc.null_pipe_rtt_ns"], _, _, err = rpcRungs(pl, nw, n); err != nil {
		return err
	}
	tl, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	res["rpc.null_tcp_rtt_ns"], res["rpc.null_tcp_rtt_allocs"], res["rpc.null_tcp_16inflight_ns"], err = rpcRungs(tl, netsim.TCPDialer{}, n)
	return err
}

// xprocNullRTT times a null-handler call against a live locofsd over TCP
// loopback: what rpc.null_tcp_rtt_ns measures, plus the two process
// wake-ups that an in-process rung cannot contain. It is the rung the
// traced pass's rpc.transit_us is to be held against.
func xprocNullRTT(addr string, n int) (float64, error) {
	c, err := rpc.Dial(netsim.TCPDialer{}, addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	ns, _ := rung(n, func(int) {
		if _, _, cerr := c.Call(wire.OpPing, nil); cerr != nil && err == nil {
			err = cerr
		}
	})
	return ns, err
}

// ladderFMS calls fms.Server methods directly, on narrow directories (16
// files each) and on one directory 16k files wide. It also returns the KV
// shape of a narrow create and a getattr.
func ladderFMS(res ladderResult, n func(int) int) (create, stat kvShape) {
	store := kv.Instrument(kv.NewHashStore(), kv.RAM)
	f := fms.New(fms.Options{Store: store, ServerID: 1, CheckPermissions: true})
	gen := uuid.NewGenerator(7)
	nc := n(8000)
	dirs := make([]uuid.UUID, nc*ladderReps/16+1)
	for i := range dirs {
		dirs[i] = gen.Next()
	}
	name := func(i int) string { return fmt.Sprintf("f%07d", i) }
	before := store.Counters().Snapshot()
	res["fms.create_ns"], res["fms.create_allocs"] = rung(nc, func(i int) { f.Create(dirs[i/16], name(i), 0o644, 0, 0) })
	create = shapeOf(store.Counters().Snapshot(), before, nc*ladderReps)
	before = store.Counters().Snapshot()
	res["fms.getattr_ns"], res["fms.getattr_allocs"] = rung(nc, func(i int) { f.Getattr(dirs[i%nc/16], name(i%nc)) })
	stat = shapeOf(store.Counters().Snapshot(), before, nc*ladderReps)

	const width = 16384
	wide := gen.Next()
	for i := 0; i < width; i++ {
		f.Create(wide, name(i), 0o644, 0, 0)
	}
	nw := n(200)
	res["fms.create_wide16k_ns"], _ = rung(nw, func(i int) { f.Create(wide, name(width+i), 0o644, 0, 0) })
	res["fms.remove_wide16k_ns"], _ = rung(nw, func(i int) { f.Remove(wide, name(width+i), 0, 0) })
	res["fms.readdir_wide16k_ns"], _ = rung(max(nw/40, 2), func(int) {
		for cursor := ""; ; {
			ents, more, _ := f.ReaddirFiles(wide, cursor, 1024)
			if !more || len(ents) == 0 {
				return
			}
			cursor = ents[len(ents)-1].Name
		}
	})
	return create, stat
}

// ladderDMS calls dms.Server.Dispatch, the entry point the RPC handlers and
// the partition log-apply path share.
func ladderDMS(res ladderResult, n func(int) int) {
	d := dms.New(dms.Options{Store: kv.NewBTreeStore(), CheckPermissions: true})
	mkdir := func(path string) {
		d.Dispatch(wire.OpMkdir, wire.NewEnc().Str(path).U32(0o755).U32(0).U32(0).Bytes())
	}
	const parents = 64
	for p := 0; p < parents; p++ {
		mkdir(fmt.Sprintf("/p%02d", p))
	}
	res["dms.mkdir_ns"], res["dms.mkdir_allocs"] = rung(n(4000), func(i int) {
		mkdir(fmt.Sprintf("/p%02d/d%06d", i%parents, i))
	})
	for _, p := range []string{"/a", "/a/b", "/a/b/c", "/a/b/c/d"} {
		mkdir(p)
	}
	lookup := wire.NewEnc().Str("/a/b/c/d").U32(0).U32(0).Bytes()
	res["dms.lookup_d4_ns"], res["dms.lookup_d4_allocs"] = rung(n(8000), func(int) { d.Dispatch(wire.OpLookupDir, lookup) })

	mkdir("/r0")
	for i := 0; i < 1000; i++ {
		mkdir(fmt.Sprintf("/r0/d%04d", i))
	}
	res["dms.rename_1k_ns"], _ = rung(n(40), func(i int) {
		body := wire.NewEnc().Str(fmt.Sprintf("/r%d", i%2)).Str(fmt.Sprintf("/r%d", (i+1)%2)).U32(0).U32(0).Bytes()
		d.Dispatch(wire.OpRenameDir, body)
	})
}

// ladderClient times whole client operations on the in-process fabric: the
// unsharded cluster, and a DMS behind the partition layer with 1 and 3
// replicas (two partitions, so that the unsharded fast path is not taken;
// the second partition stays idle).
func ladderClient(res ladderResult, n func(int) int) error {
	inproc := func(opts locofs.Options, fn func(fs *locofs.Client) error) error {
		cl, err := locofs.Start(opts)
		if err != nil {
			return err
		}
		defer cl.Close()
		fs, err := cl.NewClient(locofs.ClientConfig{})
		if err != nil {
			return err
		}
		defer fs.Close()
		return fn(fs)
	}
	// Client calls fail only if the fabric does; keep the first such error.
	var opErr error
	keep := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	mkdirRung := func(fs *locofs.Client) float64 {
		const parents = 64
		for p := 0; p < parents; p++ {
			keep(fs.Mkdir(fmt.Sprintf("/p%02d", p), 0o755))
		}
		ns, _ := rung(n(2000), func(i int) { keep(fs.Mkdir(fmt.Sprintf("/p%02d/d%06d", i%parents, i), 0o755)) })
		return ns
	}
	err := inproc(locofs.Options{FMSCount: fmsCount, CheckPermissions: true}, func(fs *locofs.Client) error {
		res["client.mkdir_inproc_ns"] = mkdirRung(fs)
		nc := n(4000)
		res["client.create_inproc_ns"], res["client.create_inproc_allocs"] = rung(nc, func(i int) {
			keep(fs.Create(fmt.Sprintf("/p%02d/f%06d", i%64, i), 0o644))
		})
		res["client.stat_inproc_ns"], res["client.stat_inproc_allocs"] = rung(nc, func(i int) {
			_, err := fs.StatFile(fmt.Sprintf("/p%02d/f%06d", i%nc%64, i%nc))
			keep(err)
		})
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range []int{1, 3} {
		opts := locofs.Options{FMSCount: fmsCount, CheckPermissions: true, DMSPartitions: 2, DMSCuts: []string{"/cut"}, DMSReplicas: r}
		err := inproc(opts, func(fs *locofs.Client) error {
			res[fmt.Sprintf("dms.partition.mkdir_r%d_ns", r)] = mkdirRung(fs)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return opErr
}
