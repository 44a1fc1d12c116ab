package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"locofs/internal/slo"
	"locofs/internal/trace"
)

// Bundle capture limits.
const (
	bundleGap    = 10 * time.Second // at most one anomaly-triggered capture per gap
	bundleKeep   = 4                // bundles retained in memory
	bundleEvents = 512              // journal tail per bundle
	bundleSpans  = 256              // span budget per bundle
)

// BundleSpan is one retained span in a bundle, a flattened copy of
// trace.Span with ids in 0x-hex (matching /debug/traces and the journal).
// Sub is present exactly when the span is a client fan-out branch, as on
// /debug/traces.
type BundleSpan struct {
	Trace       string   `json:"trace"`
	Span        string   `json:"span"`
	Parent      string   `json:"parent,omitempty"`
	Name        string   `json:"name"`
	Server      string   `json:"server,omitempty"`
	Status      string   `json:"status,omitempty"`
	Sub         *int     `json:"sub,omitempty"`
	StartNS     int64    `json:"start_ns"`
	DurNS       int64    `json:"dur_ns"`
	Annotations []string `json:"annotations,omitempty"`
}

// Bundle is one one-shot diagnostic capture: everything an engineer (or a
// later control loop) needs to reconstruct what the process was doing when
// an anomaly fired, frozen at capture time.
type Bundle struct {
	Server       string             `json:"server"`
	Reason       string             `json:"reason"`
	CapturedAtNS int64              `json:"captured_at_ns"`
	JournalSeq   uint64             `json:"journal_seq"`
	Anomalies    []slo.AnomalyState `json:"anomalies,omitempty"`
	Events       []Event            `json:"events,omitempty"`
	Spans        []BundleSpan       `json:"spans,omitempty"`
	Status       *slo.ServerStatus  `json:"status,omitempty"`
	// Extra carries component-specific sections keyed by name (e.g. the
	// cluster's membership map).
	Extra      map[string]any `json:"extra,omitempty"`
	Goroutines string         `json:"goroutines,omitempty"` // text profile, debug=1
	Heap       string         `json:"heap,omitempty"`       // text profile, debug=1
	// File is where the bundle was spooled on disk ("" = memory only).
	File string `json:"file,omitempty"`
}

// Capture freezes a bundle on demand (never rate-limited), spools it when
// the process has a spool directory, and retains it.
func (p *Process) Capture(reason string) *Bundle {
	return p.capture(reason, true)
}

// capture freezes a bundle: the journal tail, the span ring, the status
// feed, the anomaly state and the goroutine and heap profiles. Cold path by
// design. An anomaly-triggered capture (manual false) inside the bundle gap
// returns the previous bundle instead.
func (p *Process) capture(reason string, manual bool) *Bundle {
	now := p.cfg.Now()
	if !manual {
		p.mu.Lock()
		if !p.lastCap.IsZero() && now.Sub(p.lastCap) < bundleGap {
			defer p.mu.Unlock()
			return p.lastBundleLocked()
		}
		p.lastCap = now
		p.mu.Unlock()
	}
	b := &Bundle{
		Server:       p.Name,
		Reason:       reason,
		CapturedAtNS: now.UnixNano(),
		JournalSeq:   p.Journal.Seq(),
		Spans:        selectSpans(p.Tracer, bundleSpans),
		Status:       p.cfg.Status(),
		Anomalies:    p.AnomalyState(),
	}
	b.Events, _, _ = p.Journal.Since(max(b.JournalSeq, bundleEvents)-bundleEvents, bundleEvents)
	if p.cfg.Extra != nil {
		b.Extra = p.cfg.Extra()
	}
	var buf bytes.Buffer
	if prof := pprof.Lookup("goroutine"); prof != nil {
		_ = prof.WriteTo(&buf, 1)
		b.Goroutines = buf.String()
	}
	buf.Reset()
	if prof := pprof.Lookup("heap"); prof != nil {
		_ = prof.WriteTo(&buf, 1)
		b.Heap = buf.String()
	}
	if p.cfg.Dir != "" {
		_ = b.writeFile(p.cfg.Dir) // best-effort spool; b.File stays "" on error
	}
	p.Journal.Emit(KindBundle, p.Name, "", 0, int64(len(b.Events)), reason)
	p.mu.Lock()
	p.captures++
	p.bundles = append(p.bundles, b)
	if len(p.bundles) > bundleKeep {
		p.bundles = append(p.bundles[:0], p.bundles[len(p.bundles)-bundleKeep:]...)
	}
	p.mu.Unlock()
	return b
}

// Captures returns the lifetime number of bundles captured.
func (p *Process) Captures() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.captures
}

// LastBundle returns the most recent bundle (nil if none captured yet).
func (p *Process) LastBundle() *Bundle {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastBundleLocked()
}

func (p *Process) lastBundleLocked() *Bundle {
	if len(p.bundles) == 0 {
		return nil
	}
	return p.bundles[len(p.bundles)-1]
}

// selectSpans picks the bundle's span set from the ring: every errored
// (force-kept) span is guaranteed a slot first — those explain the failing
// ops — then the newest remaining spans fill the budget. Output is ordered
// by start time.
func selectSpans(t *trace.Tracer, max int) []BundleSpan {
	spans := t.Spans() // oldest first
	if len(spans) == 0 {
		return nil
	}
	picked := make([]*trace.Span, 0, max)
	for i := len(spans) - 1; i >= 0 && len(picked) < max; i-- {
		if spans[i].Status != "" {
			picked = append(picked, spans[i])
		}
	}
	for i := len(spans) - 1; i >= 0 && len(picked) < max; i-- {
		if spans[i].Status == "" {
			picked = append(picked, spans[i])
		}
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i].Start.Before(picked[j].Start) })
	out := make([]BundleSpan, 0, len(picked))
	for _, sp := range picked {
		js := toJSONSpan(sp)
		out = append(out, BundleSpan{
			Trace:       js.Trace,
			Span:        js.ID,
			Parent:      js.Parent,
			Name:        sp.Name,
			Server:      sp.Server,
			Status:      sp.Status,
			Sub:         js.Sub,
			StartNS:     sp.Start.UnixNano(),
			DurNS:       int64(sp.Dur),
			Annotations: sp.Annotations,
		})
	}
	return out
}

// ErrorSpans returns the bundle's spans carrying a non-OK status.
func (b *Bundle) ErrorSpans() []BundleSpan {
	var out []BundleSpan
	for _, sp := range b.Spans {
		if sp.Status != "" {
			out = append(out, sp)
		}
	}
	return out
}

// EventsOfKind returns the bundle's events of one kind.
func (b *Bundle) EventsOfKind(k Kind) []Event {
	var out []Event
	for _, ev := range b.Events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// writeFile spools the bundle as indented JSON under dir, creating the
// directory as needed, and records the path in b.File. The filename embeds
// the capture timestamp and reason: bundle-<unixnano>-<reason>.json.
func (b *Bundle) writeFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("bundle-%d-%s.json", b.CapturedAtNS, sanitizeReason(b.Reason)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	b.File = path
	return nil
}

// sanitizeReason maps a rule name / reason to a filename-safe slug.
func sanitizeReason(s string) string {
	if s == "" {
		return "manual"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}
