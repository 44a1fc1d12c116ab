package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"locofs/internal/client"
	"locofs/internal/core"
	"locofs/internal/wire"
)

// FigRebalance measures online FMS elasticity (beyond the paper: LocoFS's
// evaluation uses a fixed server set). A 4-FMS cluster is populated, then
// grown to 5 and shrunk back to 4 while a stat workload runs against the
// pre-existing files. Each row is one membership change and reports how
// many file keys the coordinator migrated against the consistent-hash
// ideal (1/n of the namespace for a grow to n servers), how many scan
// passes the drain took, and — the availability criterion — how many
// operations the background workload completed versus how many existing
// files ever read as missing (which must be zero).
func FigRebalance(env Env) (*Table, error) {
	files := env.TputItems * 10
	if files < 200 {
		files = 200
	}
	const fromFMS = 4

	cluster, err := core.Start(core.Options{FMSCount: fromFMS, Link: env.Link})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	seed, err := cluster.NewClient(core.ClientConfig{})
	if err != nil {
		return nil, err
	}
	defer seed.Close()
	if err := seed.Mkdir("/reb", 0o755); err != nil {
		return nil, err
	}
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("f%05d", i)
		if err := seed.Create("/reb/"+names[i], 0o644); err != nil {
			return nil, err
		}
	}

	// Background workload over the whole change sequence: every file it
	// touches exists for the entire run, so any ENOENT is a violation of
	// the migration window's dual-read guarantee.
	stop := make(chan struct{})
	var ops, violations atomic.Int64
	var wg sync.WaitGroup
	var workErr error
	var workErrOnce sync.Once
	for w := 0; w < 2; w++ {
		wcl, err := cluster.NewClient(core.ClientConfig{})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(w int, wcl *client.Client) {
			defer wg.Done()
			defer wcl.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[(i*13+w*401)%files]
				if _, err := wcl.StatFile("/reb/" + name); err != nil {
					if wire.StatusOf(err) == wire.StatusNotFound {
						violations.Add(1)
					} else {
						workErrOnce.Do(func() {
							workErr = fmt.Errorf("rebalance workload: stat %s: %w", name, err)
						})
					}
				} else {
					ops.Add(1)
				}
			}
		}(w, wcl)
	}

	t := &Table{
		Title: "Rebalance: online FMS membership change with key migration",
		Note: fmt.Sprintf("%d files; stat workload running throughout; moved vs the 1/n consistent-hash ideal; link RTT = %v",
			files, env.Link.RTT),
		Headers: []string{"change", "map ver", "files", "moved", "frac", "ideal", "passes", "bg ops", "ENOENT"},
	}
	addRow := func(change string, rep *client.RebalanceReport, n int) {
		frac := float64(rep.Moved) / float64(rep.Total)
		t.AddRow(change,
			fmt.Sprintf("%d->%d", rep.FromVer, rep.ToVer),
			fmt.Sprint(rep.Total),
			fmt.Sprint(rep.Moved),
			fmt.Sprintf("%.3f", frac),
			fmt.Sprintf("%.3f", 1/float64(n)),
			fmt.Sprint(rep.Passes),
			fmt.Sprint(ops.Load()),
			fmt.Sprint(violations.Load()))
	}

	rep, err := cluster.AddFMS()
	if err != nil {
		return nil, fmt.Errorf("rebalance: add FMS: %w", err)
	}
	addRow(fmt.Sprintf("grow %d->%d", fromFMS, fromFMS+1), rep, fromFMS+1)

	rep2, err := cluster.RemoveFMS()
	if err != nil {
		return nil, fmt.Errorf("rebalance: remove FMS: %w", err)
	}
	addRow(fmt.Sprintf("shrink %d->%d", fromFMS+1, fromFMS), rep2, fromFMS+1)

	close(stop)
	wg.Wait()
	if workErr != nil {
		return nil, workErr
	}
	if v := violations.Load(); v != 0 {
		return nil, fmt.Errorf("rebalance: %d availability violations (ENOENT for existing files)", v)
	}
	return t, nil
}
