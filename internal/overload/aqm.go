package overload

import (
	"fmt"
	"math"
	"math/rand"
)

// Pre-wrapped drop causes so the enqueue hot path allocates nothing per
// loss (the same trick dpdk's drop accounting uses).
var (
	errCoDel     = fmt.Errorf("%w: codel sojourn above target", ErrAQM)
	errREDEarly  = fmt.Errorf("%w: red probabilistic early drop", ErrAQM)
	errREDForced = fmt.Errorf("%w: red occupancy above max threshold", ErrAQM)
)

// CoDelConfig tunes the CoDel-style discipline. Zero values take the
// documented defaults, calibrated to the simulated DuT's µs-scale
// residency: CoDel guidance sets the interval near the worst-case
// round-trip of the controlled queue — here the RX ring's full drain
// time (~hundreds of µs at saturation), not an Internet RTT — and the
// target at a few percent of it. With the canonical 100 ms/5 ms values
// the inverse-sqrt ramp could never catch a line-rate flood inside a
// millisecond-scale run.
type CoDelConfig struct {
	// TargetNs is the acceptable head-of-line sojourn (default 5 µs).
	TargetNs float64
	// IntervalNs is the control interval: sojourn must stay above target
	// this long before dropping starts, and the inverse-sqrt law spaces
	// drops against it (default 10 µs — short enough that the ramp can
	// out-drop a line-rate unresponsive flood within about a millisecond
	// and actually drain the standing queue, not just match the excess).
	IntervalNs float64
}

// CoDel is the sojourn-time discipline of the AQM pair: it ignores
// occupancy entirely and watches how long the oldest queued packet has
// waited. A standing queue (sojourn persistently above target) enters the
// dropping state, and drops come faster as the inverse-sqrt control law
// ramps — exactly the behaviour that bounds tail latency under sustained
// overload without harming bursts.
//
// Deterministic: no randomness anywhere; state is a pure function of the
// observed (nowNs, sojournNs) sequence.
type CoDel struct {
	cfg CoDelConfig

	firstAboveNs float64 // when sojourn first exceeded target (+interval); 0 = below
	dropping     bool
	dropNextNs   float64 // next drop time under the control law
	count        int     // drops in the current dropping episode

	// Control-law memory across episodes: re-entering the dropping state
	// shortly after leaving it resumes near the previous drop rate instead
	// of re-ramping from scratch (the standard CoDel refinement; without
	// it a sustained overload oscillates between a drained and a full
	// ring).
	lastCount  int
	lastExitNs float64
}

var _ AQM = (*CoDel)(nil)

// NewCoDel builds the discipline, applying defaults for zero fields.
func NewCoDel(cfg CoDelConfig) (*CoDel, error) {
	if cfg.TargetNs == 0 {
		cfg.TargetNs = 5_000
	}
	if cfg.IntervalNs == 0 {
		cfg.IntervalNs = 10_000
	}
	if cfg.TargetNs < 0 || cfg.IntervalNs <= 0 {
		return nil, fmt.Errorf("overload: codel target %v / interval %v must be positive", cfg.TargetNs, cfg.IntervalNs)
	}
	return &CoDel{cfg: cfg}, nil
}

// Name implements AQM.
func (c *CoDel) Name() string { return "codel" }

// Reset implements AQM: clears the clock-anchored episode state so the
// discipline can serve a run whose simulated clock restarts at zero.
func (c *CoDel) Reset() {
	c.firstAboveNs = 0
	c.dropping = false
	c.dropNextNs = 0
	c.count = 0
	c.lastCount = 0
	c.lastExitNs = 0
}

// Admit implements AQM.
func (c *CoDel) Admit(nowNs float64, qlen, qcap int, sojournNs float64) error {
	// Below target, or too little queue to judge: leave the dropping
	// state. A short queue must never be punished — CoDel's "at least one
	// packet must remain" rule.
	if sojournNs < c.cfg.TargetNs || qlen <= 1 {
		c.firstAboveNs = 0
		if c.dropping {
			c.dropping = false
			c.lastCount = c.count
			c.lastExitNs = nowNs
		}
		return nil
	}
	if c.firstAboveNs == 0 {
		// First observation above target: arm the interval timer.
		c.firstAboveNs = nowNs + c.cfg.IntervalNs
		return nil
	}
	if !c.dropping {
		if nowNs < c.firstAboveNs {
			// Above target but the grace interval has not elapsed.
			return nil
		}
		// Sojourn stayed above target a full interval: a standing queue,
		// not a burst. Enter dropping and drop immediately, resuming near
		// the previous episode's rate when it ended recently.
		c.dropping = true
		if c.lastCount > 2 && nowNs-c.lastExitNs < 16*c.cfg.IntervalNs {
			c.count = c.lastCount - 2
		} else {
			c.count = 1
		}
		c.dropNextNs = nowNs + c.cfg.IntervalNs/math.Sqrt(float64(c.count+1))
		return errCoDel
	}
	if nowNs >= c.dropNextNs {
		c.count++
		c.dropNextNs = nowNs + c.cfg.IntervalNs/math.Sqrt(float64(c.count+1))
		return errCoDel
	}
	return nil
}

// REDConfig tunes the RED-style occupancy fallback. Zero values take the
// documented defaults.
type REDConfig struct {
	// MinFrac is the smoothed-occupancy fraction below which nothing is
	// dropped (default 0.15).
	MinFrac float64
	// MaxFrac is the fraction at and above which every packet is dropped
	// (default 0.85).
	MaxFrac float64
	// MaxP is the drop probability as occupancy approaches MaxFrac
	// (default 0.2).
	MaxP float64
	// Weight is the EWMA weight of each new occupancy observation
	// (default 0.125).
	Weight float64
	// Seed feeds the discipline's private RNG; the same seed against the
	// same workload reproduces the same drops.
	Seed int64
}

// RED is the occupancy fallback of the AQM pair: for rings whose queued
// packets carry no usable timestamps (so sojourn cannot be estimated), a
// smoothed occupancy average drives a probabilistic early drop between
// two thresholds — the classic Random Early Detection gentle slope.
//
// Deterministic via a per-instance seeded RNG: randomness is drawn only
// for packets inside the (MinFrac, MaxFrac) band, so runs that never
// enter the band never touch the RNG.
type RED struct {
	cfg REDConfig
	rng *rand.Rand
	avg float64
}

var _ AQM = (*RED)(nil)

// NewRED builds the discipline, applying defaults for zero fields.
func NewRED(cfg REDConfig) (*RED, error) {
	if cfg.MinFrac == 0 {
		cfg.MinFrac = 0.15
	}
	if cfg.MaxFrac == 0 {
		cfg.MaxFrac = 0.85
	}
	if cfg.MaxP == 0 {
		cfg.MaxP = 0.2
	}
	if cfg.Weight == 0 {
		cfg.Weight = 0.125
	}
	if cfg.MinFrac < 0 || cfg.MaxFrac > 1 || cfg.MinFrac >= cfg.MaxFrac {
		return nil, fmt.Errorf("overload: red thresholds [%v,%v] must satisfy 0 ≤ min < max ≤ 1", cfg.MinFrac, cfg.MaxFrac)
	}
	if cfg.MaxP <= 0 || cfg.MaxP > 1 {
		return nil, fmt.Errorf("overload: red maxP %v outside (0,1]", cfg.MaxP)
	}
	if cfg.Weight <= 0 || cfg.Weight > 1 {
		return nil, fmt.Errorf("overload: red weight %v outside (0,1]", cfg.Weight)
	}
	return &RED{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Name implements AQM.
func (r *RED) Name() string { return "red" }

// Reset implements AQM: clears the smoothed average for a fresh run. The
// RNG stream continues — reseeding mid-life would make two back-to-back
// runs draw identical chaos, which is not how a persistent queue behaves.
func (r *RED) Reset() { r.avg = 0 }

// Admit implements AQM.
func (r *RED) Admit(nowNs float64, qlen, qcap int, sojournNs float64) error {
	frac := 0.0
	if qcap > 0 {
		frac = float64(qlen) / float64(qcap)
	}
	r.avg += r.cfg.Weight * (frac - r.avg)
	switch {
	case r.avg < r.cfg.MinFrac:
		return nil
	case r.avg >= r.cfg.MaxFrac:
		return errREDForced
	}
	p := r.cfg.MaxP * (r.avg - r.cfg.MinFrac) / (r.cfg.MaxFrac - r.cfg.MinFrac)
	if r.rng.Float64() < p {
		return errREDEarly
	}
	return nil
}
