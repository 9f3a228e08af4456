package llcmgmt

import (
	"fmt"

	"sliceaware/internal/cachesim"
	"sliceaware/internal/overload"
	"sliceaware/internal/telemetry"
)

// ControllerConfig tunes the closed-loop isolation controller. Zero values
// take the documented defaults.
type ControllerConfig struct {
	// EpochNs is the control-epoch length on the simulated clock (default
	// 50 µs). The controller acts at most once per epoch.
	EpochNs float64
	// Window is the monitor's sliding window in epochs (default 4): the
	// pressure signal is the first-touch miss ratio over this window, so
	// one anomalous epoch cannot flip a decision by itself.
	Window int
	// Ladder tunes the hysteresis automaton. MaxLevel is forced to 1 —
	// the controller's plan space is binary (shared / isolated); the
	// remaining fields keep overload.Ladder's semantics: EscalateAfter
	// consecutive epochs at or above EscalateFrac isolate, RecoverAfter
	// consecutive epochs at or below RecoverFrac release. Defaults:
	// escalate ≥0.30 after 2 epochs, recover ≤0.05 after 40 epochs.
	Ladder overload.LadderConfig
	// Breaker guards de-isolation: each release is a breaker-protected
	// probe, and pressure re-spiking during the probation that follows is
	// recorded as a failure. Enough failed probes trip the breaker and
	// further releases are suppressed — the flap damper. Cooldown is in
	// simulated nanoseconds. Defaults: window 4, threshold 0.5, cooldown
	// 1 ms, 1 half-open probe.
	Breaker overload.BreakerConfig
	// ProbationEpochs is how long after a release the controller watches
	// for the pressure to re-spike before declaring the release sound
	// (default 16 epochs).
	ProbationEpochs int
}

// ControllerStats counts the controller's epoch activity.
type ControllerStats struct {
	Epochs             uint64
	Isolations         uint64
	Releases           uint64
	SuppressedReleases uint64 // releases refused by the open breaker
}

// Controller is the deterministic closed-loop isolation controller: every
// control epoch it samples the monitor, folds the latency-critical
// tenants' first-touch miss ratios into one pressure signal, feeds it to a
// hysteresis ladder, and — when the ladder changes level — reprograms
// every tenant's CAT ways, DDIO ways and preferred-slice assignment in one
// step. Releases are breaker-guarded probes so a workload that re-attacks
// after every release ends up permanently isolated instead of flapping.
//
// The controller starts disarmed: until Arm is called, Tick is a no-op and
// the machine runs exactly as if the subsystem did not exist.
type Controller struct {
	reg *Registry
	mon *Monitor
	cfg ControllerConfig

	ladder  *overload.Ladder
	breaker *overload.Breaker

	armed      bool
	started    bool
	epochStart float64

	level        int // currently applied plan level (0 shared, 1 isolated)
	probation    bool
	releaseEpoch uint64

	stats ControllerStats

	ctrIsolate *telemetry.Counter
	ctrRelease *telemetry.Counter
}

// NewController builds a disarmed controller over the registry's tenants.
func NewController(reg *Registry, cfg ControllerConfig) (*Controller, error) {
	if reg == nil {
		return nil, fmt.Errorf("llcmgmt: controller needs a registry")
	}
	if cfg.EpochNs <= 0 {
		cfg.EpochNs = 50_000
	}
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	if cfg.ProbationEpochs == 0 {
		cfg.ProbationEpochs = 16
	}
	cfg.Ladder.MaxLevel = 1
	if cfg.Ladder.EscalateFrac == 0 {
		cfg.Ladder.EscalateFrac = 0.30
	}
	if cfg.Ladder.RecoverFrac == 0 {
		cfg.Ladder.RecoverFrac = 0.05
	}
	if cfg.Ladder.EscalateAfter == 0 {
		cfg.Ladder.EscalateAfter = 2
	}
	if cfg.Ladder.RecoverAfter == 0 {
		cfg.Ladder.RecoverAfter = 40
	}
	if cfg.Breaker.Window == 0 {
		cfg.Breaker.Window = 4
	}
	if cfg.Breaker.HalfOpenProbes == 0 {
		cfg.Breaker.HalfOpenProbes = 1
	}
	ladder, err := overload.NewLadder(cfg.Ladder)
	if err != nil {
		return nil, err
	}
	breaker, err := overload.NewBreaker(cfg.Breaker)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		reg:     reg,
		mon:     NewMonitor(reg, cfg.Window),
		cfg:     cfg,
		ladder:  ladder,
		breaker: breaker,
	}
	if r := reg.tele.Registry(); r != nil {
		r.GaugeFunc("llcmgmt_isolation_level", "Currently applied isolation plan level", "",
			func() float64 { return float64(c.level) })
		c.ctrIsolate = r.CounterL("llcmgmt_reallocations_total",
			"Committed tenant reallocations, by direction", `direction="isolate"`)
		c.ctrRelease = r.CounterL("llcmgmt_reallocations_total",
			"Committed tenant reallocations, by direction", `direction="release"`)
	}
	return c, nil
}

// Arm starts the control loop at the next Tick. Nil-safe.
func (c *Controller) Arm() {
	if c == nil {
		return
	}
	c.armed = true
}

// Level reports the currently applied plan level.
func (c *Controller) Level() int { return c.level }

// Stats reports cumulative epoch activity.
func (c *Controller) Stats() ControllerStats { return c.stats }

// Tick drives the loop from the simulated clock; call it on every arrival
// (or any other monotonic event stream). Epochs close when at least
// EpochNs elapsed since the previous one, so sparse event streams produce
// longer — never shorter — epochs. Nil-safe; a no-op while disarmed.
func (c *Controller) Tick(nowNs float64) {
	if c == nil || !c.armed {
		return
	}
	if !c.started {
		c.started = true
		c.epochStart = nowNs
		c.mon.Sample() // establish counter baselines
		return
	}
	if nowNs-c.epochStart < c.cfg.EpochNs {
		return
	}
	c.epochStart = nowNs
	c.mon.Sample()
	pressure := 0.0
	for i, t := range c.reg.tenants {
		t.pressure = c.mon.LeakPressure(i)
		if t.cfg.Class == LatencyCritical && t.pressure > pressure {
			pressure = t.pressure
		}
	}
	c.step(nowNs, pressure)
}

// step runs one control epoch against an already-computed pressure sample.
// Split from Tick so the hysteresis tests can drive synthetic pressure
// sequences without a machine.
func (c *Controller) step(nowNs, pressure float64) {
	c.stats.Epochs++
	c.ladder.Observe(pressure)
	desired := c.ladder.Level()

	if c.probation {
		switch {
		case pressure >= c.cfg.Ladder.EscalateFrac:
			// The workload re-attacked right after we released: the probe
			// failed. The ladder will re-isolate on its own; the breaker
			// remembers the flap.
			c.breaker.Record(nowNs, false)
			c.probation = false
		case c.stats.Epochs-c.releaseEpoch >= uint64(c.cfg.ProbationEpochs):
			c.breaker.Record(nowNs, true)
			c.probation = false
		}
	}

	switch {
	case desired > c.level:
		c.apply(desired, nowNs, pressure)
	case desired < c.level:
		if err := c.breaker.Allow(nowNs); err != nil {
			c.stats.SuppressedReleases++
			return
		}
		c.apply(desired, nowNs, pressure)
		c.probation = true
		c.releaseEpoch = c.stats.Epochs
	}
}

// apply commits a plan level: 0 restores every tenant's registered
// allocation, ≥1 applies the isolation plan. The transition is recorded as
// a timeline event and a direction-labelled counter.
func (c *Controller) apply(level int, nowNs, pressure float64) {
	direction := "release"
	if level > c.level {
		direction = "isolate"
	}
	if level >= 1 {
		c.isolate()
		c.stats.Isolations++
		c.ctrIsolate.Inc(0)
	} else {
		c.release()
		c.stats.Releases++
		c.ctrRelease.Inc(0)
	}
	c.level = level
	c.reg.tele.SetNow(nowNs)
	c.reg.tele.Event(fmt.Sprintf("llcmgmt: %s level=%d pressure=%.3f", direction, level, pressure))
}

// isolate programs the one-step isolation plan:
//
//   - DDIO split: latency-critical tenants get dedicated I/O ways carved
//     from the top of the DDIO region (their registered DDIOWays each, in
//     registration order); bulk tenants share whatever remains. A bulk
//     port can no longer churn a latency-critical tenant's in-flight RX
//     lines.
//   - CAT split: the non-DDIO ways are divided into contiguous per-tenant
//     chunks proportional to core counts (latency-critical tenants
//     uppermost). No tenant mask touches the DDIO region at all — the
//     A4-style placement the cat.SetDDIOProtect guard exists to preserve.
func (c *Controller) isolate() {
	l := c.reg.machine.LLC
	ways := c.reg.machine.Profile.LLCSlice.Ways
	ddioLo := ways - l.DDIOWays()

	ordered := make([]*Tenant, 0, len(c.reg.tenants))
	for _, t := range c.reg.tenants {
		if t.cfg.Class == LatencyCritical {
			ordered = append(ordered, t)
		}
	}
	nLC := len(ordered)
	for _, t := range c.reg.tenants {
		if t.cfg.Class != LatencyCritical {
			ordered = append(ordered, t)
		}
	}

	// I/O ways, top down.
	hi := ways
	for _, t := range ordered[:nLC] {
		lo := hi - t.cfg.DDIOWays
		if lo < ddioLo {
			lo = ddioLo
		}
		t.appliedDDIO = cachesim.MaskOfWayRange(lo, hi)
		hi = lo
	}
	bulkShare := cachesim.WayMask(0)
	if hi > ddioLo {
		bulkShare = cachesim.MaskOfWayRange(ddioLo, hi)
	}
	for _, t := range ordered[nLC:] {
		t.appliedDDIO = bulkShare
	}
	for _, t := range ordered {
		if t.port != nil {
			t.port.SetDDIOMask(t.appliedDDIO)
		}
	}

	// Core-side capacity, top down from the DDIO boundary, proportional
	// to core counts with a one-way floor; the last tenant absorbs the
	// remainder.
	total := 0
	for _, t := range ordered {
		total += len(t.cfg.Cores)
	}
	hi = ddioLo
	for i, t := range ordered {
		n := ddioLo * len(t.cfg.Cores) / total
		if n < 1 {
			n = 1
		}
		lo := hi - n
		if i == len(ordered)-1 || lo < 1 {
			lo = 0
		}
		if lo >= hi { // degenerate: more tenants than ways; share way 0
			lo = 0
			hi = 1
		}
		mask := cachesim.MaskOfWayRange(lo, hi)
		if err := c.reg.cat.SetCapacityMask(t.cos, uint64(mask)); err != nil {
			// Cannot happen by construction (contiguous, below the DDIO
			// region); keep the previous mask if it somehow does.
			continue
		}
		for _, core := range t.cfg.Cores {
			_ = c.reg.cat.Associate(core, t.cos)
		}
		t.appliedCAT = mask
		hi = lo
	}
}

// release restores every tenant's registered allocation: ports return to
// the socket-wide DDIO mask and cores to their static CAT budget (COS0's
// full mask for tenants that registered none).
func (c *Controller) release() {
	for _, t := range c.reg.tenants {
		if t.port != nil {
			t.port.SetDDIOMask(0)
		}
		t.appliedDDIO = 0
		if t.cfg.CATWays != 0 {
			if err := c.reg.cat.SetCapacityMask(t.cos, uint64(t.cfg.CATWays)); err == nil {
				for _, core := range t.cfg.Cores {
					_ = c.reg.cat.Associate(core, t.cos)
				}
				t.appliedCAT = t.cfg.CATWays
			}
		} else {
			for _, core := range t.cfg.Cores {
				_ = c.reg.cat.Associate(core, 0)
			}
			t.appliedCAT = 0
		}
	}
}
