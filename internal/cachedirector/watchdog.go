package cachedirector

import (
	"fmt"

	"sliceaware/internal/dpdk"
	"sliceaware/internal/uncore"
)

// Mode is the director's operating state.
type Mode int

const (
	// ModeActive applies the pre-computed slice-aware headroom table.
	ModeActive Mode = iota
	// ModeDegraded bypasses the table and falls back to plain DPDK's
	// default headroom: placement is no longer slice-aware, but it is
	// never slice-hostile either. The watchdog keeps probing and
	// re-enables the table when the believed mapping proves healthy.
	ModeDegraded
)

func (m Mode) String() string {
	switch m {
	case ModeActive:
		return "active"
	case ModeDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// WatchdogConfig tunes the placement watchdog. Zero values take defaults.
type WatchdogConfig struct {
	// CheckEvery probes one of every CheckEvery prepared mbufs (default
	// 256). Probing costs flush+load rounds on the consuming core, so it
	// must stay sparse.
	CheckEvery int
	// Window is the sliding window of probe outcomes over which health is
	// judged (default 16).
	Window int
	// MinHealthy is the fraction of the window that must verify for the
	// director to stay active (default 0.75). A full window below this
	// threshold trips ModeDegraded.
	MinHealthy float64
	// Probes is the flush+load poll count per verification, as in the
	// §2.1 polling methodology (default 8).
	Probes int
	// RecoverAfter is how many consecutive verified probes end
	// ModeDegraded (default 8).
	RecoverAfter int
}

// watchdog verifies, by the same uncore polling that reverse-engineered
// the hash in the first place (§2.1), that the slice the director believes
// an mbuf's target line maps to is the slice that actually serves it. A
// run of contradictions means the deployed Complex Addressing profile does
// not match the silicon, and slice-aware placement is actively harmful —
// so the director falls back to default placement until the signal clears.
type watchdog struct {
	cfg  WatchdogConfig
	mon  *uncore.Monitor
	mode Mode

	window   []bool // ring buffer of probe outcomes (true = verified)
	wpos     int
	wfill    int
	streak   int    // consecutive verified probes
	prepared uint64 // mbufs prepared since EnableWatchdog
}

// EnableWatchdog arms placement verification on the director. Call once,
// after New; the watchdog starts in ModeActive.
func (d *Director) EnableWatchdog(cfg WatchdogConfig) error {
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = 256
	}
	if cfg.Window == 0 {
		cfg.Window = 16
	}
	if cfg.MinHealthy == 0 {
		cfg.MinHealthy = 0.75
	}
	if cfg.Probes == 0 {
		cfg.Probes = 8
	}
	if cfg.RecoverAfter == 0 {
		cfg.RecoverAfter = 8
	}
	if cfg.CheckEvery < 1 || cfg.Window < 1 || cfg.Probes < 1 || cfg.RecoverAfter < 1 {
		return fmt.Errorf("cachedirector: watchdog intervals must be positive: %+v", cfg)
	}
	if cfg.MinHealthy < 0 || cfg.MinHealthy > 1 {
		return fmt.Errorf("cachedirector: watchdog MinHealthy %v outside [0,1]", cfg.MinHealthy)
	}
	d.wd = &watchdog{
		cfg:    cfg,
		mon:    uncore.NewMonitor(d.machine.LLC),
		window: make([]bool, cfg.Window),
	}
	return nil
}

// Mode reports the director's operating state (ModeActive when no
// watchdog is armed).
func (d *Director) Mode() Mode {
	if d.wd == nil {
		return ModeActive
	}
	return d.wd.mode
}

// due advances the prepared-mbuf counter and reports whether this mbuf
// should be probed.
func (w *watchdog) due() bool {
	w.prepared++
	return w.prepared%uint64(w.cfg.CheckEvery) == 0
}

// probePlacement checks one placement: the line the table would home for
// this (mbuf, queue) is flushed and re-loaded Probes times while the CBo
// lookup counters run; the dominant slice is compared against the
// director's believed mapping. The poll charges cycles to the consuming
// core — the price of supervision.
func (d *Director) probePlacement(m *dpdk.Mbuf, queue, lines int) {
	w := d.wd
	va := m.DataBaseVA() + uint64(lines*64) + uint64(d.cfg.TargetOffset)
	pa := m.Pool().Mapping().Phys(va)
	core := d.machine.Core(queue)

	w.mon.Start(uncore.EventLookups)
	for i := 0; i < w.cfg.Probes; i++ {
		core.FlushPhys(pa)
		core.ReadPhys(pa)
	}
	deltas, err := w.mon.Read()
	w.mon.Stop()

	verified := false
	if err == nil {
		if idx, ok := uncore.ArgMax(deltas, 2.0); ok {
			verified = idx == d.hash.Slice(pa)
		}
	}
	d.ctrProbes.Inc(queue)
	if !verified {
		d.ctrMisses.Inc(queue)
	}
	if tr := w.record(verified); tr != "" {
		d.tele.Event("watchdog_" + tr)
	}
}

// record pushes one probe outcome through the sliding window and drives
// the mode state machine. It returns the transition taken this probe:
// "" (none), "degraded" (Active→Degraded) or "recovered"
// (Degraded→Active), so the caller can surface it to telemetry.
func (w *watchdog) record(verified bool) string {
	if verified {
		w.streak++
	} else {
		w.streak = 0
	}
	w.window[w.wpos] = verified
	w.wpos = (w.wpos + 1) % len(w.window)
	if w.wfill < len(w.window) {
		w.wfill++
	}

	switch w.mode {
	case ModeActive:
		if w.wfill < len(w.window) {
			return "" // judge only a full window
		}
		healthy := 0
		for _, ok := range w.window {
			if ok {
				healthy++
			}
		}
		if float64(healthy) < w.cfg.MinHealthy*float64(len(w.window)) {
			w.mode = ModeDegraded
			return "degraded"
		}
	case ModeDegraded:
		if w.streak >= w.cfg.RecoverAfter {
			w.mode = ModeActive
			// Re-enter with a clean bill of health so a single stale miss
			// in the ring cannot immediately re-trip the threshold.
			for i := range w.window {
				w.window[i] = true
			}
			w.streak = 0
			return "recovered"
		}
	}
	return ""
}
