// Package common provides the shared substrate for the baseline distributed
// file systems reproduced from the paper's evaluation (IndexFS, CephFS,
// Gluster, Lustre).
//
// The baselines are modeled at the level the paper's experiments actually
// compare: *which servers a metadata operation must contact, in what order,
// and how much server-side software work each request costs*. Every baseline
// runs on the same KV + RPC substrate as LocoFS; what differs per system is
// the client-side routing (encoded in each baseline package) and a Profile
// of per-request service time calibrated from the paper's own single-node
// measurements (Fig 10).
package common

import (
	"fmt"
	"time"

	"locofs/internal/kv"
	"locofs/internal/netsim"
	"locofs/internal/rpc"
	"locofs/internal/wire"
)

// Generic metadata-server operations shared by all baselines.
const (
	OpGet wire.Op = 0x0400 + iota
	OpPut
	OpCreateX // exclusive create: fails with EEXIST
	OpDel
	OpExists
	OpListPrefix
	OpCountPrefix
	OpDelPrefix
)

// Profile models the software path of one baseline's metadata server. The
// service times are charged virtually per request (see rpc.Config.Service):
// they flow into every response's ServiceNS and into the
// server's cumulative Busy() time, from which experiments derive latency
// and server-bound throughput without wall-clock sleeping.
type Profile struct {
	// Name labels the system in experiment output.
	Name string
	// ReadService is the server-side processing time of a read request.
	ReadService time.Duration
	// WriteService is the server-side processing time of a mutation.
	WriteService time.Duration
	// Workers is the usable request parallelism of the metadata path
	// (journal-serialized designs get small values); experiments model
	// per-server capacity as Workers / service-time.
	Workers int
}

// Server is one generic baseline metadata server: a KV store behind the
// generic ops, with the profile's service time charged per request.
type Server struct {
	Store   kv.Store
	profile Profile
	RPC     *rpc.Server
}

// NewServer builds a generic server over store.
func NewServer(store kv.Store, profile Profile) *Server {
	s := &Server{Store: store, profile: profile}
	// The calibrated profile is the whole service model, in place of
	// wall-clock measurement (meaningless under CPU contention).
	s.RPC = rpc.New(rpc.Config{Service: func(op wire.Op, run func()) time.Duration {
		run()
		switch op {
		case OpPut, OpCreateX, OpDel, OpDelPrefix:
			return profile.WriteService
		case OpGet, OpExists, OpListPrefix, OpCountPrefix:
			return profile.ReadService
		}
		return 0
	}})
	s.attach()
	return s
}

func (s *Server) attach() {
	s.RPC.Handle(OpGet, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		key := d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		v, ok := s.Store.Get(key)
		if !ok {
			return wire.StatusNotFound, nil
		}
		return wire.StatusOK, wire.NewEnc().Blob(v).Bytes()
	})
	s.RPC.Handle(OpPut, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		key, val := d.Blob(), d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		s.Store.Put(key, val)
		return wire.StatusOK, nil
	})
	s.RPC.Handle(OpCreateX, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		key, val := d.Blob(), d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		if _, ok := s.Store.Get(key); ok {
			return wire.StatusExist, nil
		}
		s.Store.Put(key, val)
		return wire.StatusOK, nil
	})
	s.RPC.Handle(OpDel, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		key := d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		if !s.Store.Delete(key) {
			return wire.StatusNotFound, nil
		}
		return wire.StatusOK, nil
	})
	s.RPC.Handle(OpExists, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		key := d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		_, ok := s.Store.Get(key)
		return wire.StatusOK, wire.NewEnc().Bool(ok).Bytes()
	})
	s.RPC.Handle(OpListPrefix, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		prefix := d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		names := s.scanPrefix(prefix)
		e := wire.NewEnc().U32(uint32(len(names)))
		for _, n := range names {
			e.Str(n)
		}
		return wire.StatusOK, e.Bytes()
	})
	s.RPC.Handle(OpCountPrefix, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		prefix := d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		return wire.StatusOK, wire.NewEnc().U32(uint32(len(s.scanPrefix(prefix)))).Bytes()
	})
	s.RPC.Handle(OpDelPrefix, func(body []byte) (wire.Status, []byte) {
		d := wire.NewDec(body)
		prefix := d.Blob()
		if d.Err() != nil {
			return wire.StatusInval, nil
		}
		names := s.scanPrefix(prefix)
		for _, n := range names {
			s.Store.Delete(append(append([]byte(nil), prefix...), n...))
		}
		return wire.StatusOK, wire.NewEnc().U32(uint32(len(names))).Bytes()
	})
}

// scanPrefix returns the suffixes of keys beginning with prefix. An ordered
// store scans the range; a hash store must visit everything.
func (s *Server) scanPrefix(prefix []byte) []string {
	var names []string
	if o, ok := s.Store.(kv.Ordered); ok {
		o.AscendPrefix(prefix, func(k, v []byte) bool {
			names = append(names, string(k[len(prefix):]))
			return true
		})
		return names
	}
	s.Store.ForEach(func(k, v []byte) bool {
		if len(k) >= len(prefix) && string(k[:len(prefix)]) == string(prefix) {
			names = append(names, string(k[len(prefix):]))
		}
		return true
	})
	return names
}

// Cluster is a set of generic baseline servers on one fabric.
type Cluster struct {
	Profile Profile
	Servers []*Server
	Addrs   []string
	net     *netsim.Network
}

// StartCluster launches n servers named "<profile.Name>-<i>" on the fabric,
// each with a store built by mkStore.
func StartCluster(network *netsim.Network, n int, profile Profile, mkStore func() kv.Store) (*Cluster, error) {
	c := &Cluster{Profile: profile, net: network}
	for i := 0; i < n; i++ {
		srv := NewServer(mkStore(), profile)
		addr := fmt.Sprintf("%s-%d", profile.Name, i)
		l, err := network.Listen(addr)
		if err != nil {
			return nil, err
		}
		go srv.RPC.Serve(l)
		c.Servers = append(c.Servers, srv)
		c.Addrs = append(c.Addrs, addr)
	}
	return c, nil
}

// Close shuts down every server.
func (c *Cluster) Close() {
	for _, s := range c.Servers {
		s.RPC.Shutdown()
	}
}

// Conn is a client-side bundle of connections to every server of a cluster.
type Conn struct {
	Clients []*rpc.Client
}

// DialCluster connects to every server, installing link as the modeled
// network for virtual-time accounting.
func DialCluster(d netsim.Dialer, addrs []string, link netsim.LinkConfig) (*Conn, error) {
	c := &Conn{}
	for _, a := range addrs {
		cl, err := rpc.Dial(d, a)
		if err != nil {
			c.Close()
			return nil, err
		}
		cl.SetLink(link)
		c.Clients = append(c.Clients, cl)
	}
	return c, nil
}

// Cost sums the modeled time across all connections.
func (c *Conn) Cost() time.Duration {
	var d time.Duration
	for _, cl := range c.Clients {
		d += cl.VirtualTime()
	}
	return d
}

// Close closes every connection.
func (c *Conn) Close() error {
	for _, cl := range c.Clients {
		cl.Close()
	}
	return nil
}

// Trips sums round trips across all connections.
func (c *Conn) Trips() uint64 {
	var n uint64
	for _, cl := range c.Clients {
		n += cl.Trips()
	}
	return n
}

// N returns the number of servers.
func (c *Conn) N() int { return len(c.Clients) }

// Get fetches key from server i.
func (c *Conn) Get(i int, key []byte) ([]byte, wire.Status, error) {
	st, resp, err := c.Clients[i].Call(OpGet, wire.NewEnc().Blob(key).Bytes())
	if err != nil || st != wire.StatusOK {
		return nil, st, err
	}
	return wire.NewDec(resp).Blob(), st, nil
}

// Put stores key on server i.
func (c *Conn) Put(i int, key, val []byte) (wire.Status, error) {
	st, _, err := c.Clients[i].Call(OpPut, wire.NewEnc().Blob(key).Blob(val).Bytes())
	return st, err
}

// CreateX exclusively creates key on server i.
func (c *Conn) CreateX(i int, key, val []byte) (wire.Status, error) {
	st, _, err := c.Clients[i].Call(OpCreateX, wire.NewEnc().Blob(key).Blob(val).Bytes())
	return st, err
}

// Del deletes key on server i.
func (c *Conn) Del(i int, key []byte) (wire.Status, error) {
	st, _, err := c.Clients[i].Call(OpDel, wire.NewEnc().Blob(key).Bytes())
	return st, err
}

// Exists probes key on server i.
func (c *Conn) Exists(i int, key []byte) (bool, error) {
	st, resp, err := c.Clients[i].Call(OpExists, wire.NewEnc().Blob(key).Bytes())
	if err != nil {
		return false, err
	}
	if st != wire.StatusOK {
		return false, st.Err()
	}
	return wire.NewDec(resp).Bool(), nil
}

// CountPrefix counts keys with prefix on server i.
func (c *Conn) CountPrefix(i int, prefix []byte) (int, error) {
	st, resp, err := c.Clients[i].Call(OpCountPrefix, wire.NewEnc().Blob(prefix).Bytes())
	if err != nil {
		return 0, err
	}
	if st != wire.StatusOK {
		return 0, st.Err()
	}
	return int(wire.NewDec(resp).U32()), nil
}

// ListPrefix lists key suffixes with prefix on server i.
func (c *Conn) ListPrefix(i int, prefix []byte) ([]string, error) {
	st, resp, err := c.Clients[i].Call(OpListPrefix, wire.NewEnc().Blob(prefix).Bytes())
	if err != nil {
		return nil, err
	}
	if st != wire.StatusOK {
		return nil, st.Err()
	}
	d := wire.NewDec(resp)
	n := d.Count(4) // an empty suffix
	out := make([]string, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, d.Str())
	}
	return out, d.Err()
}

// DelPrefix deletes keys with prefix on server i, returning the count.
func (c *Conn) DelPrefix(i int, prefix []byte) (int, error) {
	st, resp, err := c.Clients[i].Call(OpDelPrefix, wire.NewEnc().Blob(prefix).Bytes())
	if err != nil {
		return 0, err
	}
	if st != wire.StatusOK {
		return 0, st.Err()
	}
	return int(wire.NewDec(resp).U32()), nil
}

// SubtreeKey returns the first depth components of a cleaned path, the
// granularity at which subtree-partitioned systems (CephFS, Lustre DNE1)
// spread the namespace over their servers.
func SubtreeKey(p string, depth int) string {
	if p == "/" || depth <= 0 {
		return "/"
	}
	idx := 0
	for i := 1; i < len(p); i++ {
		if p[i] == '/' {
			depth--
			if depth == 0 {
				return p[:i]
			}
		}
		idx = i
	}
	_ = idx
	return p
}

// HashServer maps a string key onto one of n servers (FNV-1a + avalanche).
func HashServer(key string, n int) int {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return int(h % uint64(n))
}
