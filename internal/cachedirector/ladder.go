package cachedirector

import (
	"fmt"

	"sliceaware/internal/overload"
)

// Level is one rung of the director's coordinated degradation ladder. The
// ladder generalizes the watchdog's binary active/degraded switch into
// ordered levels that shed the director's own overhead progressively as
// backpressure builds, instead of jumping straight from full feature to
// plain placement.
type Level int

const (
	// LevelFull is the fully-featured mode: pre-computed slice-aware
	// headroom plus the per-packet driver charge.
	LevelFull Level = iota
	// LevelHeaderOnly keeps the pre-computed header-line placement (the
	// benefit) but switches in the application-sorted fast path, dropping
	// the per-packet driver charge (the cost) — the first thing worth
	// shedding when the consuming cores are the bottleneck.
	LevelHeaderOnly
	// LevelPassthrough falls back to plain DPDK default headroom: no
	// slice-aware work at all, exactly the watchdog's degraded placement.
	LevelPassthrough
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelFull:
		return "full"
	case LevelHeaderOnly:
		return "header-only"
	case LevelPassthrough:
		return "passthrough"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// EnableLadder arms the degradation ladder. The underlying controller is
// fed through ObservePressure (typically wired to netsim's backpressure
// callback); its MaxLevel must stay within the director's three rungs
// (zero defaults to LevelPassthrough). Call once, after New.
func (d *Director) EnableLadder(cfg overload.LadderConfig) error {
	if cfg.MaxLevel == 0 {
		cfg.MaxLevel = int(LevelPassthrough)
	}
	if cfg.MaxLevel > int(LevelPassthrough) {
		return fmt.Errorf("cachedirector: ladder MaxLevel %d exceeds the deepest rung %d", cfg.MaxLevel, int(LevelPassthrough))
	}
	l, err := overload.NewLadder(cfg)
	if err != nil {
		return err
	}
	d.ladder = l
	return nil
}

// Ladder exposes the armed degradation controller (nil when disarmed).
func (d *Director) Ladder() *overload.Ladder { return d.ladder }

// ObservePressure feeds one backpressure sample ([0,1], e.g. from the
// netsim pressure callback) into the ladder and surfaces any resulting
// transition as a telemetry event. A no-op until EnableLadder.
func (d *Director) ObservePressure(nowNs, pressure float64) {
	switch d.ladder.Observe(pressure) {
	case 1:
		d.tele.Event("ladder_escalate_" + Level(d.ladder.Level()).String())
	case -1:
		d.tele.Event("ladder_recover_" + Level(d.ladder.Level()).String())
	}
}

// CurrentLevel reports the effective placement level the next Prepare call
// will use, combining every degradation signal:
//
//   - the pressure-driven ladder level;
//   - a watchdog in ModeDegraded forces LevelPassthrough (the believed
//     mapping is wrong — slice-aware placement would be actively harmful).
//
// Without a ladder the level mirrors the legacy watchdog switch: LevelFull
// when active, LevelPassthrough when degraded.
func (d *Director) CurrentLevel() Level {
	if d.wd != nil && d.wd.mode == ModeDegraded {
		return LevelPassthrough
	}
	if d.ladder == nil {
		return LevelFull
	}
	return Level(d.ladder.Level())
}
