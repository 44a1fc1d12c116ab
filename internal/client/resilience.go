package client

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"locofs/internal/wire"
)

// Metric names recorded by the client's fault-tolerance layer. Every series
// carries an op label (retry/deadline counters) or a state label (breaker
// transitions).
const (
	// MetricRetries counts retry attempts issued beyond each call's first
	// attempt.
	MetricRetries = "locofs_client_retries_total"
	// MetricDeadlines counts per-attempt deadline expiries.
	MetricDeadlines = "locofs_client_deadline_exceeded_total"
	// MetricBreaker counts circuit-breaker state transitions, labeled
	// state=open|half-open|closed.
	MetricBreaker = "locofs_client_breaker_transitions_total"
	// MetricFastFails counts calls refused immediately because the
	// endpoint's breaker was open.
	MetricFastFails = "locofs_client_breaker_fastfail_total"
)

// RetryPolicy bounds automatic retries of failed call attempts. A retry is
// issued only for attempt-level failures — transport errors, per-attempt
// deadline expiry, or an explicit wire.StatusUnavailable — never for
// application-level statuses like ENOENT. Idempotent operations (see
// wire.Op.Idempotent) are re-executed freely; non-idempotent mutations are
// retried under a per-call request id that the server owning the state (the
// FMS's window, a DMS partition's op log) uses to suppress double execution,
// so retries are safe across the whole op matrix.
//
// The zero value means DefaultRetry (one immediate retry — the legacy
// transparent-reconnect behavior). Max < 0 disables retries entirely.
type RetryPolicy struct {
	// Max is the number of retry attempts after the first try.
	Max int
	// Base is the first retry's backoff; each subsequent retry doubles it,
	// with full jitter in [d/2, d]. Zero retries immediately.
	Base time.Duration
	// Cap bounds the exponential growth (0 = uncapped).
	Cap time.Duration
}

// DefaultRetry is the policy a zero RetryPolicy resolves to: one immediate
// retry, matching the endpoint's historical redial-once-per-call behavior.
var DefaultRetry = RetryPolicy{Max: 1}

// normalized resolves the zero value and clamps disabled policies.
func (p RetryPolicy) normalized() RetryPolicy {
	if p == (RetryPolicy{}) {
		return DefaultRetry
	}
	if p.Max < 0 {
		p.Max = 0
	}
	return p
}

// backoff returns the jittered delay before retry attempt n (1-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	d := p.Base << (n - 1)
	if d <= 0 || (p.Cap > 0 && d > p.Cap) { // <= 0 guards shift overflow
		d = p.Cap
		if d <= 0 {
			d = p.Base
		}
	}
	// Full jitter over the upper half keeps retry storms from
	// synchronizing while preserving the exponential envelope.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// BreakerConfig configures the per-endpoint circuit breaker. The zero value
// disables it.
type BreakerConfig struct {
	// Threshold is the number of consecutive attempt failures that trips
	// the breaker open. Zero (or negative) disables the breaker.
	Threshold int
	// Cooldown is how long an open breaker refuses calls before allowing a
	// half-open probe. Zero means DefaultBreakerCooldown.
	Cooldown time.Duration
}

// DefaultBreakerCooldown is used when BreakerConfig.Cooldown is zero.
const DefaultBreakerCooldown = time.Second

// breaker is one endpoint's health gate: closed (normal), open (fail fast
// until the cooldown expires), half-open (exactly one probe call in flight;
// its outcome closes or re-opens the circuit). now is injectable for tests.
type breaker struct {
	cfg          BreakerConfig
	now          func() time.Time
	onTransition func(state string) // telemetry hook, may be nil

	mu      sync.Mutex
	open    bool
	until   time.Time // when open, the earliest half-open probe time
	fails   int       // consecutive failures while closed
	probing bool      // a half-open probe is in flight
}

func newBreaker(cfg BreakerConfig, now func() time.Time, onTransition func(string)) *breaker {
	if cfg.Threshold > 0 && cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerCooldown
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{cfg: cfg, now: now, onTransition: onTransition}
}

func (b *breaker) transition(state string) {
	if b.onTransition != nil {
		b.onTransition(state)
	}
}

// allow reports whether a call may proceed. When the circuit is open and
// cooling down it returns a wire.StatusUnavailable error for the caller to
// fail fast with; when the cooldown has expired it admits a single probe
// (marking the circuit half-open) and keeps refusing everyone else until
// the probe reports.
func (b *breaker) allow() error {
	if b == nil || b.cfg.Threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return nil
	}
	if b.probing || b.now().Before(b.until) {
		return wire.StatusUnavailable.Err()
	}
	b.probing = true
	b.transition("half-open")
	return nil
}

// report records one attempt's outcome.
func (b *breaker) report(ok bool) {
	if b == nil || b.cfg.Threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	wasProbe := b.probing
	b.probing = false
	if ok {
		if b.open {
			b.transition("closed")
		}
		b.open = false
		b.fails = 0
		return
	}
	if b.open {
		// A failed half-open probe (or a straggler failure) restarts the
		// cooldown.
		if wasProbe {
			b.transition("open")
		}
		b.until = b.now().Add(b.cfg.Cooldown)
		return
	}
	b.fails++
	if b.fails >= b.cfg.Threshold {
		b.open = true
		b.until = b.now().Add(b.cfg.Cooldown)
		b.transition("open")
	}
}

// resilience is the per-client fault-tolerance configuration shared by
// every endpoint: the per-attempt deadline, the retry policy, the breaker
// configuration, and the mint for dedup request ids.
type resilience struct {
	timeout time.Duration
	retry   RetryPolicy
	breaker BreakerConfig
	now     func() time.Time // breaker clock (tests)

	reqBase uint64
	reqCtr  atomic.Uint64
}

func newResilience(timeout time.Duration, retry RetryPolicy, brk BreakerConfig, now func() time.Time) *resilience {
	base := rand.Uint64() << 24
	for base == 0 {
		base = rand.Uint64() << 24
	}
	return &resilience{
		timeout: timeout,
		retry:   retry.normalized(),
		breaker: brk,
		now:     now,
		reqBase: base,
	}
}

// nextReq mints a request id for one logical call: 40 random bits
// identifying this client (colliding clients would need matching ids inside
// one server's dedup record) plus a 24-bit sequence. Never zero.
func (r *resilience) nextReq() uint64 {
	return r.reqBase | (r.reqCtr.Add(1) & (1<<24 - 1))
}
