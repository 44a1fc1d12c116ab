package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"locofs/internal/core"
	"locofs/internal/obs"
	"locofs/internal/trace"
)

// Spans runs a mixed metadata workload with full tracing (sample = 1.0, the
// cluster and the client sharing one span ring) and reports the span-tree
// breakdown per operation class: for every distinct root-to-span path —
// e.g. Readdir > page > rpc:ReaddirFiles > ReaddirFiles — the number of
// spans recorded and their mean wall-clock duration. It is the aggregate
// view of what /debug/traces serves one trace at a time, and shows where
// each op class spends its time across the client, the DMS, and the FMSes.
func Spans(env Env) (*Table, error) {
	tracer := trace.New(trace.Config{Sample: 1, BufSpans: 1 << 16, Slow: -1})
	cluster, err := core.Start(core.Options{FMSCount: 4, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	// Cache disabled so lookups reach the DMS and show up in the trees.
	cl, err := cluster.NewClient(core.ClientConfig{DisableCache: true, Obs: &obs.Handle{Tracer: tracer}})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	n := env.LatItems
	if n > 200 {
		n = 200 // full tracing: bound the ring churn, the shape converges fast
	}
	if err := cl.Mkdir("/spans", 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("/spans/d%d", i)
		f := fmt.Sprintf("/spans/f%d", i)
		steps := []func() error{
			func() error { return cl.Mkdir(d, 0o755) },
			func() error { _, err := cl.StatDir(d); return err },
			func() error { return cl.Create(f, 0o644) },
			func() error { _, err := cl.StatFile(f); return err },
			func() error { _, err := cl.Readdir("/spans"); return err },
			func() error { return cl.Remove(f) },
			func() error { return cl.Rmdir(d) },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return nil, fmt.Errorf("bench: spans workload: %w", err)
			}
		}
	}
	return SpanBreakdown(tracer.Spans(),
		"Span-tree breakdown per op class (LocoFS, fully traced)",
		fmt.Sprintf("%d iterations; every span of every trace recorded (sample=1.0), client and servers sharing one ring.", n)), nil
}

// SpanBreakdown aggregates raw spans into per-path rows: spans are keyed by
// their root-to-leaf name path (annotated with the recording server), and
// each distinct path reports its span count and mean duration, grouped
// under its root op class.
func SpanBreakdown(spans []*trace.Span, title, note string) *Table {
	byID := make(map[uint64]*trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	type agg struct {
		count uint64
		total time.Duration
	}
	paths := make(map[string]*agg)
	for _, sp := range spans {
		// Render the root-to-sp name chain; an unresolvable parent (its span
		// fell off the ring, or it lives in another process) renders as "?".
		var names []string
		for cur := sp; cur != nil; {
			label := cur.Name
			if cur.Server != "" && cur.Server != "client" {
				label += "@" + cur.Server
			}
			names = append(names, label)
			if cur.Parent == 0 {
				break
			}
			parent := byID[cur.Parent]
			if parent == nil {
				names = append(names, "?")
			}
			cur = parent
		}
		for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
			names[i], names[j] = names[j], names[i]
		}
		p := strings.Join(names, " > ")
		a := paths[p]
		if a == nil {
			a = &agg{}
			paths[p] = a
		}
		a.count++
		a.total += sp.Dur
	}
	keys := make([]string, 0, len(paths))
	for p := range paths {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	t := &Table{
		Title:   title,
		Note:    note,
		Headers: []string{"span path", "count", "mean"},
	}
	for _, p := range keys {
		a := paths[p]
		t.AddRow(p, fmt.Sprintf("%d", a.count),
			fmtUS(a.total/time.Duration(a.count)))
	}
	return t
}
