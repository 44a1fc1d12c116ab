// Command mdtest runs the mdtest-style metadata workload against an
// in-process LocoFS cluster and prints per-phase throughput and latency —
// the reproduction's equivalent of the paper's mdtest+OpenMPI driver.
//
// Usage:
//
//	mdtest [-servers N] [-clients N] [-items N] [-depth N] [-nocache]
//	       [-coupled] [-rtt duration] [-phases list]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"locofs/internal/core"
	"locofs/internal/fsapi"
	"locofs/internal/mdtest"
	"locofs/internal/netsim"
)

func main() {
	servers := flag.Int("servers", 4, "number of file metadata servers")
	clients := flag.Int("clients", 8, "number of concurrent workload clients")
	items := flag.Int("items", 1000, "files/dirs per client per phase")
	depth := flag.Int("depth", 1, "working-directory depth")
	nocache := flag.Bool("nocache", false, "disable the client directory cache (LocoFS-NC)")
	coupled := flag.Bool("coupled", false, "run FMSs in coupled-inode mode (LocoFS-CF)")
	rtt := flag.Duration("rtt", 174*time.Microsecond, "modeled network RTT")
	phasesFlag := flag.String("phases", strings.Join(mdtest.DefaultPhases, ","),
		"comma-separated phases to run")
	flag.Parse()

	cluster, err := core.Start(core.Options{
		FMSCount:            *servers,
		Link:                netsim.LinkConfig{RTT: *rtt, Bandwidth: 125e6},
		CostModel:           &core.PaperKVCost,
		CoupledFileMetadata: *coupled,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdtest:", err)
		os.Exit(1)
	}
	defer cluster.Close()

	rep, err := mdtest.Run(mdtest.Config{
		Clients:        *clients,
		ItemsPerClient: *items,
		Depth:          *depth,
		Phases:         strings.Split(*phasesFlag, ","),
	}, func() (fsapi.FS, error) {
		cl, err := cluster.NewClient(core.ClientConfig{DisableCache: *nocache})
		if err != nil {
			return nil, err
		}
		return fsapi.LocoFS{C: cl}, nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdtest:", err)
		os.Exit(1)
	}

	fmt.Printf("LocoFS mdtest: %d FMS, %d clients x %d items, depth %d, RTT %v\n",
		*servers, *clients, *items, *depth, *rtt)
	fmt.Printf("%-10s %10s %8s %14s %14s %14s\n",
		"phase", "ops", "errors", "mean-lat", "p99-lat", "wall-IOPS")
	for _, pr := range rep.Results {
		fmt.Printf("%-10s %10d %8d %14v %14v %14.0f\n",
			pr.Phase, pr.Ops, pr.Errors,
			pr.VirtLatency.Mean.Round(time.Microsecond),
			pr.VirtLatency.P99.Round(time.Microsecond),
			pr.IOPS())
	}
}
