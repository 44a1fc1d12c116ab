package obs

import (
	"fmt"
	"sort"
	"time"

	"locofs/internal/slo"
)

// RuleKind selects an anomaly rule's evaluation strategy.
type RuleKind string

// Rule kinds.
const (
	// RuleEventRate fires when at least Count journal events of kind Event
	// were appended within the trailing Window.
	RuleEventRate RuleKind = "event-rate"
	// RuleBurnRate fires when an SLO class's windowed burn rate reaches
	// Threshold (1.0 = burning exactly at budget).
	RuleBurnRate RuleKind = "burn-rate"
	// RuleP99Step fires when an SLO class's windowed headline percentile
	// jumps to Factor times its recent baseline (median of the recorder's
	// own poll history) — a step change rather than an absolute threshold.
	RuleP99Step RuleKind = "p99-step"
)

// Rule is one declarative anomaly condition.
type Rule struct {
	Name string
	Kind RuleKind

	// Event-rate rules.
	Event  Kind
	Count  int
	Window time.Duration

	// SLO rules, judged on any op class with at least MinCount ops in its
	// window.
	Threshold float64
	Factor    float64
	MinCount  uint64

	// Cooldown suppresses refiring for this long after a firing.
	Cooldown time.Duration
}

// DefaultRules is the rule set every process evaluates: breaker flap,
// lease-recall storm, SLO burn-rate spike, and a p99 step change.
func DefaultRules() []Rule {
	const window, cooldown = 10 * time.Second, 30 * time.Second
	return []Rule{
		{Name: "breaker-flap", Kind: RuleEventRate, Event: KindBreaker, Count: 3, Window: window, Cooldown: cooldown},
		{Name: "recall-storm", Kind: RuleEventRate, Event: KindLeaseRecall, Count: 256, Window: window, Cooldown: cooldown},
		{Name: "burn-spike", Kind: RuleBurnRate, Threshold: 2, MinCount: 20, Cooldown: cooldown},
		{Name: "p99-step", Kind: RuleP99Step, Factor: 4, MinCount: 50, Cooldown: time.Minute},
	}
}

// Anomaly is one rule firing.
type Anomaly struct {
	Rule   string
	AtNS   int64
	Seq    uint64 // journal seq at the firing (correlates events)
	Detail string
}

// ruleState is one rule's firing history.
type ruleState struct {
	count  uint64
	last   time.Time
	detail string
}

const (
	pollInterval   = 2 * time.Second // Start's evaluation cadence
	p99HistoryLen  = 16
	p99BaselineMin = 4 // polls of history before a step can fire
)

// Poll evaluates every rule once and returns the anomalies that fired (a
// rule inside its cooldown fires nothing). Each firing is journaled as a
// KindAnomaly event and captures a bundle (rate-limited; see Capture).
func (p *Process) Poll() []Anomaly {
	now := p.cfg.Now()
	var statuses []slo.ClassStatus
	if st := p.cfg.Status(); st != nil {
		statuses = st.SLO
	}

	var fired []Anomaly
	p.mu.Lock()
	for _, r := range DefaultRules() {
		detail, ok := p.eval(r, now, statuses)
		if !ok {
			continue
		}
		st := p.rules[r.Name]
		if st == nil {
			st = &ruleState{}
			p.rules[r.Name] = st
		}
		if !st.last.IsZero() && now.Sub(st.last) < r.Cooldown {
			continue
		}
		st.count++
		st.last = now
		st.detail = detail
		p.fired++
		fired = append(fired, Anomaly{Rule: r.Name, AtNS: now.UnixNano(), Seq: p.Journal.Seq(), Detail: detail})
	}
	p.pushBaselines(statuses) // baselines advance every poll, fired or not
	p.mu.Unlock()

	for _, a := range fired {
		p.Journal.Emit(KindAnomaly, p.Name, "", 0, int64(a.Seq), a.Rule)
		p.capture(a.Rule, false)
	}
	return fired
}

// eval checks one rule against the journal and this poll's class statuses
// (caller holds p.mu, for the baselines).
func (p *Process) eval(r Rule, now time.Time, statuses []slo.ClassStatus) (string, bool) {
	switch r.Kind {
	case RuleEventRate:
		if n := p.Journal.CountKindSince(r.Event, now.Add(-r.Window).UnixNano()); n >= r.Count {
			return fmt.Sprintf("%d %s events in %s", n, r.Event, r.Window), true
		}
	case RuleBurnRate:
		for _, cs := range statuses {
			if cs.WindowCount >= r.MinCount && cs.BurnRate >= r.Threshold {
				return fmt.Sprintf("class %s burn rate %.2f (threshold %.2f)", cs.Class, cs.BurnRate, r.Threshold), true
			}
		}
	case RuleP99Step:
		for _, cs := range statuses {
			if cs.WindowCount < r.MinCount || cs.WindowPSec <= 0 {
				continue
			}
			if base := median(p.hist[cs.Metric+"/"+cs.Class]); base > 0 && cs.WindowPSec >= r.Factor*base {
				return fmt.Sprintf("class %s p%.0f %.4fs is %.1fx baseline %.4fs",
					cs.Class, cs.Percentile*100, cs.WindowPSec, cs.WindowPSec/base, base), true
			}
		}
	}
	return "", false
}

// pushBaselines records this poll's headline percentiles into the step-rule
// history (only classes with traffic, so idle polls don't dilute the
// baseline toward zero). Caller holds p.mu.
func (p *Process) pushBaselines(statuses []slo.ClassStatus) {
	for _, cs := range statuses {
		if cs.WindowCount == 0 || cs.WindowPSec <= 0 {
			continue
		}
		k := cs.Metric + "/" + cs.Class
		h := append(p.hist[k], cs.WindowPSec)
		if len(h) > p99HistoryLen {
			h = h[len(h)-p99HistoryLen:]
		}
		p.hist[k] = h
	}
}

// median of a baseline history; 0 until p99BaselineMin polls accumulated.
func median(h []float64) float64 {
	if len(h) < p99BaselineMin {
		return 0
	}
	s := append([]float64(nil), h...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// AnomalyState summarizes per-rule firing history as the AnomalyState
// entries a ServerStatus carries (rules that never fired are omitted),
// sorted by rule name.
func (p *Process) AnomalyState() []slo.AnomalyState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]slo.AnomalyState, 0, len(p.rules))
	for name, st := range p.rules {
		out = append(out, slo.AnomalyState{
			Source: p.Name,
			Rule:   name,
			Count:  st.count,
			LastNS: st.last.UnixNano(),
			Detail: st.detail,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// Start launches the background anomaly poll, every two seconds, until
// Close. Both are idempotent.
func (p *Process) Start() {
	if p.started.Swap(true) {
		return
	}
	go func() {
		t := time.NewTicker(pollInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.Poll()
			}
		}
	}()
}

// Close stops the background poll.
func (p *Process) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
}
