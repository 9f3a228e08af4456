package overload

import "fmt"

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int

const (
	// BreakerClosed passes every call through while tracking outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets a few trial calls through to probe recovery.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerConfig tunes a circuit breaker. Zero values take the documented
// defaults. The clock is caller-supplied: kvs passes core cycles, the
// CacheDirector probe passes prepared-packet counts, netsim passes
// simulated nanoseconds — the breaker only needs monotonicity.
type BreakerConfig struct {
	// Window is the sliding outcome window length (default 16).
	Window int
	// FailureThreshold is the failure fraction over a full window that
	// trips Closed→Open (default 0.5).
	FailureThreshold float64
	// Cooldown is how long (in caller clock units) the breaker stays Open
	// before allowing half-open trials (default 1_000_000 — one
	// millisecond when the clock is nanoseconds).
	Cooldown float64
	// HalfOpenProbes is how many consecutive half-open successes close the
	// breaker again (default 3).
	HalfOpenProbes int
	// HalfOpenMaxInflight caps how many half-open trials may be in flight
	// (allowed but not yet recorded) at once. 0 keeps the legacy behaviour
	// — every call during half-open passes — which is what the sequential
	// simulator call sites rely on. Concurrent callers (the slicekvsd
	// daemon wraps the breaker in a SyncBreaker) set it so a probe storm
	// cannot flood a still-recovering resource; HalfOpenProbes is the
	// natural setting.
	HalfOpenMaxInflight int
}

// BreakerStats counts one breaker's decisions and transitions.
type BreakerStats struct {
	Trips      uint64 // Closed/HalfOpen → Open transitions
	Recoveries uint64 // HalfOpen → Closed transitions
}

// Breaker is a deterministic closed/open/half-open circuit breaker on a
// caller-supplied monotonic clock. A nil *Breaker is a no-op that allows
// everything, so call sites need no guards.
//
// Usage: call Allow before the protected operation; on nil, run it and
// Record the outcome. On ErrBreakerOpen, skip the operation cheaply.
type Breaker struct {
	cfg BreakerConfig

	state    BreakerState
	window   []bool // ring buffer of outcomes (true = failure)
	head     int
	filled   int
	failures int
	openedAt float64
	streak   int // consecutive half-open successes
	inflight int // half-open trials allowed but not yet recorded

	stats BreakerStats
}

// NewBreaker builds a breaker, applying defaults for zero fields.
func NewBreaker(cfg BreakerConfig) (*Breaker, error) {
	if cfg.Window == 0 {
		cfg.Window = 16
	}
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = 0.5
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 1_000_000
	}
	if cfg.HalfOpenProbes == 0 {
		cfg.HalfOpenProbes = 3
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("overload: breaker window %d must be ≥1", cfg.Window)
	}
	if cfg.FailureThreshold <= 0 || cfg.FailureThreshold > 1 {
		return nil, fmt.Errorf("overload: breaker failure threshold %v outside (0,1]", cfg.FailureThreshold)
	}
	if cfg.Cooldown <= 0 {
		return nil, fmt.Errorf("overload: breaker cooldown %v must be positive", cfg.Cooldown)
	}
	if cfg.HalfOpenProbes < 1 {
		return nil, fmt.Errorf("overload: breaker half-open probes %d must be ≥1", cfg.HalfOpenProbes)
	}
	if cfg.HalfOpenMaxInflight < 0 {
		return nil, fmt.Errorf("overload: breaker half-open in-flight cap %d must be ≥0", cfg.HalfOpenMaxInflight)
	}
	return &Breaker{cfg: cfg, window: make([]bool, cfg.Window)}, nil
}

// State reports the current automaton state; nil breakers read as closed.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	return b.state
}

// Stats reports cumulative decision/transition counts.
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{}
	}
	return b.stats
}

// Allow decides whether the protected operation may run at clock reading
// now. nil means proceed (and the caller must Record the outcome);
// ErrBreakerOpen means fail fast. Nil-safe.
func (b *Breaker) Allow(now float64) error {
	if b == nil {
		return nil
	}
	if b.state == BreakerOpen {
		if now-b.openedAt < b.cfg.Cooldown {
			return ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.streak = 0
		b.inflight = 0
	}
	if b.state == BreakerHalfOpen && b.cfg.HalfOpenMaxInflight > 0 {
		if b.inflight >= b.cfg.HalfOpenMaxInflight {
			return ErrBreakerOpen
		}
		b.inflight++
	}
	return nil
}

// Record reports the outcome of an operation Allow passed through.
// Nil-safe.
func (b *Breaker) Record(now float64, success bool) {
	if b == nil {
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		if b.inflight > 0 {
			b.inflight--
		}
		if !success {
			// A half-open trial failed: reopen and restart the cooldown.
			b.trip(now)
			return
		}
		b.streak++
		if b.streak >= b.cfg.HalfOpenProbes {
			b.state = BreakerClosed
			b.inflight = 0
			b.resetWindow()
			b.stats.Recoveries++
		}
	case BreakerClosed:
		b.push(!success)
		if b.filled == b.cfg.Window &&
			float64(b.failures) >= b.cfg.FailureThreshold*float64(b.cfg.Window) {
			b.trip(now)
		}
	case BreakerOpen:
		// A straggler outcome from before the trip; the window is dead
		// state until half-open, so ignore it.
	}
}

// Cancel withdraws a call Allow passed through without recording an
// outcome — the operation never ran (e.g. its queue was full), so the
// outcome window should not learn anything, but a half-open trial slot
// must be given back. Nil-safe.
func (b *Breaker) Cancel() {
	if b == nil {
		return
	}
	if b.state == BreakerHalfOpen && b.inflight > 0 {
		b.inflight--
	}
}

func (b *Breaker) trip(now float64) {
	b.state = BreakerOpen
	b.openedAt = now
	b.streak = 0
	b.inflight = 0
	b.stats.Trips++
}

func (b *Breaker) push(failure bool) {
	if b.filled == b.cfg.Window {
		if b.window[b.head] {
			b.failures--
		}
	} else {
		b.filled++
	}
	b.window[b.head] = failure
	if failure {
		b.failures++
	}
	b.head = (b.head + 1) % b.cfg.Window
}

func (b *Breaker) resetWindow() {
	for i := range b.window {
		b.window[i] = false
	}
	b.head = 0
	b.filled = 0
	b.failures = 0
}
