package bench

import (
	"fmt"
	"time"

	"locofs/internal/baseline/cephfs"
	"locofs/internal/baseline/common"
	"locofs/internal/baseline/glusterfs"
	"locofs/internal/baseline/indexfs"
	"locofs/internal/baseline/lustrefs"
	"locofs/internal/core"
	"locofs/internal/fsapi"
	"locofs/internal/netsim"
	"locofs/internal/obs"
	"locofs/internal/telemetry"
)

// System identifiers used across experiments. The names match the paper's
// figure legends.
const (
	SysLocoC    = "LocoFS-C"  // client cache enabled
	SysLocoNC   = "LocoFS-NC" // client cache disabled
	SysLocoCF   = "LocoFS-CF" // coupled file metadata (ablation, Fig 11)
	SysLocoDF   = "LocoFS-DF" // decoupled file metadata (alias of LocoFS-C)
	SysIndexFS  = "IndexFS"
	SysCephFS   = "CephFS"
	SysGluster  = "Gluster"
	SysLustreD1 = "Lustre D1"
	SysLustreD2 = "Lustre D2"
)

// Fig6Systems is the lineup of the latency/throughput comparisons.
var Fig6Systems = []string{SysLocoC, SysLocoNC, SysLustreD1, SysLustreD2, SysCephFS, SysGluster}

// Fig10Systems adds IndexFS for the co-located study.
var Fig10Systems = []string{SysLocoC, SysIndexFS, SysLustreD1, SysLustreD2, SysCephFS, SysGluster}

// locoWorkers models the request parallelism of one LocoFS metadata server
// (the paper's nodes have 8 cores).
const locoWorkers = 8

// SUT is a started system under test: a client factory plus server-side
// accounting for throughput modeling.
type SUT struct {
	Name string
	// NewFS returns a fresh client.
	NewFS func() (fsapi.FS, error)
	// MetaBusy returns cumulative service time per *metadata* server.
	MetaBusy func() []time.Duration
	// Workers is the modeled request parallelism per metadata server.
	Workers int
	// Metrics aggregates per-op round-trip telemetry across every client
	// created by NewFS (LocoFS systems only; nil for baselines). Use
	// Metrics.Snapshot().OpTable(rpc.MetricRTT) for a per-op breakdown.
	Metrics *telemetry.Registry
	// Close shuts the system down.
	Close func()
}

// StartSystem launches the named system with n metadata servers and the
// given modeled link.
func StartSystem(name string, n int, link netsim.LinkConfig) (*SUT, error) {
	switch name {
	case SysLocoC, SysLocoNC, SysLocoCF, SysLocoDF:
		opts := core.Options{
			FMSCount:            n,
			Link:                link,
			CostModel:           &core.PaperKVCost,
			CoupledFileMetadata: name == SysLocoCF,
		}
		cluster, err := core.Start(opts)
		if err != nil {
			return nil, err
		}
		reg := telemetry.NewRegistry()
		return &SUT{
			Name: name,
			NewFS: func() (fsapi.FS, error) {
				cl, err := cluster.NewClient(core.ClientConfig{
					Obs:          &obs.Handle{Reg: reg},
					DisableCache: name == SysLocoNC,
				})
				if err != nil {
					return nil, err
				}
				return fsapi.LocoFS{C: cl}, nil
			},
			MetaBusy: func() []time.Duration {
				// DMS + FMSs only (the first 1+n rpc servers).
				return cluster.ServerBusy()[:1+n]
			},
			Workers: locoWorkers,
			Metrics: reg,
			Close:   cluster.Close,
		}, nil
	case SysIndexFS:
		network := netsim.NewNetwork(netsim.Loopback)
		sys, err := indexfs.Start(network, n, link)
		if err != nil {
			network.Close()
			return nil, err
		}
		return baselineSUT(name, network, sys.Cluster(), func() (fsapi.FS, error) { return sys.NewClient() }, func() { sys.Close(); network.Close() }), nil
	case SysCephFS:
		network := netsim.NewNetwork(netsim.Loopback)
		sys, err := cephfs.Start(network, n, link)
		if err != nil {
			network.Close()
			return nil, err
		}
		return baselineSUT(name, network, sys.Cluster(), func() (fsapi.FS, error) { return sys.NewClient() }, func() { sys.Close(); network.Close() }), nil
	case SysGluster:
		network := netsim.NewNetwork(netsim.Loopback)
		sys, err := glusterfs.Start(network, n, link)
		if err != nil {
			network.Close()
			return nil, err
		}
		return baselineSUT(name, network, sys.Cluster(), func() (fsapi.FS, error) { return sys.NewClient() }, func() { sys.Close(); network.Close() }), nil
	case SysLustreD1, SysLustreD2:
		variant := lustrefs.DNE1
		if name == SysLustreD2 {
			variant = lustrefs.DNE2
		}
		network := netsim.NewNetwork(netsim.Loopback)
		sys, err := lustrefs.Start(network, n, variant, link)
		if err != nil {
			network.Close()
			return nil, err
		}
		return baselineSUT(name, network, sys.Cluster(), func() (fsapi.FS, error) { return sys.NewClient() }, func() { sys.Close(); network.Close() }), nil
	}
	return nil, fmt.Errorf("bench: unknown system %q", name)
}

func baselineSUT(name string, network *netsim.Network, cl *common.Cluster, newFS func() (fsapi.FS, error), closeFn func()) *SUT {
	return &SUT{
		Name:  name,
		NewFS: newFS,
		MetaBusy: func() []time.Duration {
			out := make([]time.Duration, len(cl.Servers))
			for i, s := range cl.Servers {
				out[i] = s.RPC.Busy()
			}
			return out
		},
		Workers: cl.Profile.Workers,
		Close:   closeFn,
	}
}
