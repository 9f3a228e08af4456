package overload

import "fmt"

// LadderConfig tunes a degradation ladder. Zero values take the
// documented defaults.
type LadderConfig struct {
	// MaxLevel is the deepest degradation level; levels run 0..MaxLevel
	// with 0 the fully-featured mode (default 2, matching the
	// CacheDirector's full → header-only → passthrough ladder).
	MaxLevel int
	// EscalateFrac is the pressure at or above which an observation counts
	// toward escalation (default 0.6).
	EscalateFrac float64
	// RecoverFrac is the pressure at or below which an observation counts
	// toward recovery (default 0.2). Observations between the two
	// fractions reset both runs — the hysteresis band.
	RecoverFrac float64
	// EscalateAfter is how many consecutive high-pressure observations
	// move one level down the ladder (default 128).
	EscalateAfter int
	// RecoverAfter is how many consecutive calm observations move one
	// level back up; deliberately longer than EscalateAfter so recovery
	// is cautious (default 1024).
	RecoverAfter int
}

// LadderStats counts a ladder's transitions.
type LadderStats struct {
	Escalations uint64
	Recoveries  uint64
}

// Ladder is an ordered degradation controller with hysteresis: consecutive
// high-pressure observations escalate one level at a time, and a longer
// run of calm observations recovers one level at a time. External signals
// (a tripped breaker, a failed watchdog) can pin a floor level below
// which the effective level never recovers, regardless of pressure.
//
// Deterministic: a pure function of the observation sequence and SetFloor
// calls.
type Ladder struct {
	cfg LadderConfig

	level   int // pressure-driven level, 0..MaxLevel
	floor   int // externally pinned minimum degradation
	hiRun   int
	calmRun int

	stats LadderStats
}

// NewLadder builds a ladder, applying defaults for zero fields.
func NewLadder(cfg LadderConfig) (*Ladder, error) {
	if cfg.MaxLevel == 0 {
		cfg.MaxLevel = 2
	}
	if cfg.EscalateFrac == 0 {
		cfg.EscalateFrac = 0.6
	}
	if cfg.RecoverFrac == 0 {
		cfg.RecoverFrac = 0.2
	}
	if cfg.EscalateAfter == 0 {
		cfg.EscalateAfter = 128
	}
	if cfg.RecoverAfter == 0 {
		cfg.RecoverAfter = 1024
	}
	if cfg.MaxLevel < 1 {
		return nil, fmt.Errorf("overload: ladder needs ≥1 degradation level, got %d", cfg.MaxLevel)
	}
	if cfg.RecoverFrac < 0 || cfg.EscalateFrac > 1 || cfg.RecoverFrac >= cfg.EscalateFrac {
		return nil, fmt.Errorf("overload: ladder fractions recover %v / escalate %v must satisfy 0 ≤ recover < escalate ≤ 1", cfg.RecoverFrac, cfg.EscalateFrac)
	}
	if cfg.EscalateAfter < 1 || cfg.RecoverAfter < 1 {
		return nil, fmt.Errorf("overload: ladder observation counts must be ≥1")
	}
	return &Ladder{cfg: cfg}, nil
}

// Level reports the effective level: the pressure-driven level, raised to
// the externally pinned floor. Nil-safe (level 0).
func (l *Ladder) Level() int {
	if l == nil {
		return 0
	}
	if l.floor > l.level {
		return l.floor
	}
	return l.level
}

// Stats reports cumulative transition counts.
func (l *Ladder) Stats() LadderStats {
	if l == nil {
		return LadderStats{}
	}
	return l.stats
}

// SetFloor pins a minimum degradation level from an external signal (a
// tripped breaker, a failed watchdog); 0 releases the pin. Clamped to
// [0, MaxLevel]. Nil-safe.
func (l *Ladder) SetFloor(level int) {
	if l == nil {
		return
	}
	if level < 0 {
		level = 0
	}
	if level > l.cfg.MaxLevel {
		level = l.cfg.MaxLevel
	}
	l.floor = level
}

// Observe feeds one pressure sample ([0,1]) to the controller and returns
// the change in the pressure-driven level this observation caused
// (-1, 0, +1 — positive is deeper degradation). Nil-safe (always 0).
func (l *Ladder) Observe(pressure float64) int {
	if l == nil {
		return 0
	}
	switch {
	case pressure >= l.cfg.EscalateFrac:
		l.calmRun = 0
		l.hiRun++
		if l.hiRun >= l.cfg.EscalateAfter && l.level < l.cfg.MaxLevel {
			l.level++
			l.hiRun = 0
			l.stats.Escalations++
			return 1
		}
	case pressure <= l.cfg.RecoverFrac:
		l.hiRun = 0
		l.calmRun++
		if l.calmRun >= l.cfg.RecoverAfter && l.level > 0 {
			l.level--
			l.calmRun = 0
			l.stats.Recoveries++
			return -1
		}
	default:
		// Inside the hysteresis band: neither side accumulates.
		l.hiRun = 0
		l.calmRun = 0
	}
	return 0
}
