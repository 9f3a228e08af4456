package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"sliceaware/internal/telemetry"
)

// SLO kinds.
const (
	SLOLatency      = "latency"
	SLOAvailability = "availability"
)

// SLO is one per-class objective.
//
//   - latency: Target fraction of successful requests must finish within
//     LatencyNs (e.g. 99% under 20 ms).
//   - availability: Target fraction of finished requests must succeed
//     (every non-ok outcome — shed, breaker, timeout, error — burns
//     budget; that is deliberate: overload-mode refusals are exactly the
//     unavailability the paper's tail-latency claims trade against).
type SLO struct {
	Kind      string  `json:"kind"`
	Class     int     `json:"class"`
	LatencyNs float64 `json:"latency_ns,omitempty"`
	Target    float64 `json:"target"`
}

// Budget is the allowed bad fraction, 1 - Target.
func (s SLO) Budget() float64 { return 1 - s.Target }

func (s SLO) String() string {
	if s.Kind == SLOLatency {
		return fmt.Sprintf("latency[class %d]: %.0f%% < %s",
			s.Class, s.Target*100, time.Duration(s.LatencyNs))
	}
	return fmt.Sprintf("availability[class %d]: %.1f%%", s.Class, s.Target*100)
}

// ParseSLOs parses a comma-separated SLO spec into per-class objectives.
// Entries:
//
//	lat:<class|*>:<duration>:<target>   e.g. lat:3:20ms:0.99
//	avail:<class|*>:<target>            e.g. avail:*:0.95
//
// `*` expands to every class in [0, classes). An empty spec yields nil.
func ParseSLOs(spec string, classes int) ([]SLO, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []SLO
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("obs: slo entry %q: want kind:class:...", entry)
		}
		classList, err := parseSLOClasses(parts[1], classes)
		if err != nil {
			return nil, fmt.Errorf("obs: slo entry %q: %w", entry, err)
		}
		switch parts[0] {
		case "lat", "latency":
			if len(parts) != 4 {
				return nil, fmt.Errorf("obs: slo entry %q: want lat:<class|*>:<duration>:<target>", entry)
			}
			d, err := time.ParseDuration(parts[2])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("obs: slo entry %q: bad duration %q", entry, parts[2])
			}
			target, err := parseSLOTarget(parts[3])
			if err != nil {
				return nil, fmt.Errorf("obs: slo entry %q: %w", entry, err)
			}
			for _, c := range classList {
				out = append(out, SLO{Kind: SLOLatency, Class: c, LatencyNs: float64(d.Nanoseconds()), Target: target})
			}
		case "avail", "availability":
			if len(parts) != 3 {
				return nil, fmt.Errorf("obs: slo entry %q: want avail:<class|*>:<target>", entry)
			}
			target, err := parseSLOTarget(parts[2])
			if err != nil {
				return nil, fmt.Errorf("obs: slo entry %q: %w", entry, err)
			}
			for _, c := range classList {
				out = append(out, SLO{Kind: SLOAvailability, Class: c, Target: target})
			}
		default:
			return nil, fmt.Errorf("obs: slo entry %q: unknown kind %q (want lat or avail)", entry, parts[0])
		}
	}
	return out, nil
}

func parseSLOClasses(s string, classes int) ([]int, error) {
	if s == "*" {
		out := make([]int, classes)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	c, err := strconv.Atoi(s)
	if err != nil || c < 0 || c >= classes {
		return nil, fmt.Errorf("bad class %q (want 0..%d or *)", s, classes-1)
	}
	return []int{c}, nil
}

func parseSLOTarget(s string) (float64, error) {
	t, err := strconv.ParseFloat(s, 64)
	if err != nil || t <= 0 || t >= 1 {
		return 0, fmt.Errorf("bad target %q (want a fraction in (0,1))", s)
	}
	return t, nil
}

// burnWindow is a fixed ring of per-tick (bad, total) samples with
// running sums — one window of one SLO's burn-rate evaluation.
type burnWindow struct {
	bad, total []uint64
	pos        int
	filled     int
	sumBad     uint64
	sumTotal   uint64
}

func newBurnWindow(ticks int) *burnWindow {
	if ticks < 1 {
		ticks = 1
	}
	return &burnWindow{bad: make([]uint64, ticks), total: make([]uint64, ticks)}
}

func (w *burnWindow) push(bad, total uint64) {
	w.sumBad -= w.bad[w.pos]
	w.sumTotal -= w.total[w.pos]
	w.bad[w.pos], w.total[w.pos] = bad, total
	w.sumBad += bad
	w.sumTotal += total
	w.pos++
	if w.pos == len(w.bad) {
		w.pos = 0
	}
	if w.filled < len(w.bad) {
		w.filled++
	}
}

// burn is the window's budget burn rate: (bad/total)/budget. Zero when
// the window saw no traffic — no requests burn no budget.
func (w *burnWindow) burn(budget float64) float64 {
	if w.sumTotal == 0 || budget <= 0 {
		return 0
	}
	return float64(w.sumBad) / float64(w.sumTotal) / budget
}

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	SLOs []SLO
	// Tick is the feed period (default 1s); windows are rounded to whole
	// ticks.
	Tick time.Duration
	// FastWindow (default 5s) both gates firing and — because it drains
	// quickly once the problem stops — clears the alert promptly. The
	// SlowWindow (default 1m) supplies the sustained evidence, so a
	// single bad second cannot page. Classic multi-window burn alerting.
	FastWindow time.Duration
	SlowWindow time.Duration
	// BurnThreshold fires when both windows burn at ≥ this multiple of
	// the budget rate (default 4).
	BurnThreshold float64
	// Registry, when non-nil, receives burn-rate and alert gauges under
	// MetricPrefix.
	Registry     *telemetry.Registry
	MetricPrefix string
}

// sloState is one SLO's evaluation state.
type sloState struct {
	slo    SLO
	fast   *burnWindow
	slow   *burnWindow
	firing bool

	gFast, gSlow, gAlert *telemetry.Gauge
}

// Monitor evaluates multi-window SLO burn rates from per-tick per-class
// deltas. Alerts fire when the fast AND slow windows both exceed the
// burn threshold, and resolve when the fast window falls back under it.
// Not safe for concurrent use: one stats loop owns it. A nil *Monitor
// ticks to nothing.
type Monitor struct {
	cfg    MonitorConfig
	states []*sloState
	fired  uint64
}

// NewMonitor builds a monitor for the given SLOs (nil when none).
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if len(cfg.SLOs) == 0 {
		return nil, nil
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = 5 * time.Second
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = time.Minute
	}
	if cfg.SlowWindow < cfg.FastWindow {
		return nil, fmt.Errorf("obs: slow window %s < fast window %s", cfg.SlowWindow, cfg.FastWindow)
	}
	if cfg.BurnThreshold <= 0 {
		cfg.BurnThreshold = 4
	}
	if cfg.MetricPrefix == "" {
		cfg.MetricPrefix = "obs"
	}
	m := &Monitor{cfg: cfg}
	for _, slo := range cfg.SLOs {
		st := &sloState{
			slo:  slo,
			fast: newBurnWindow(int(cfg.FastWindow / cfg.Tick)),
			slow: newBurnWindow(int(cfg.SlowWindow / cfg.Tick)),
		}
		if cfg.Registry != nil {
			base := fmt.Sprintf("slo=%q,class=%q", slo.Kind, strconv.Itoa(slo.Class))
			st.gFast = cfg.Registry.GaugeL(cfg.MetricPrefix+"_slo_burn_rate",
				"SLO budget burn rate by window", base+`,window="fast"`)
			st.gSlow = cfg.Registry.GaugeL(cfg.MetricPrefix+"_slo_burn_rate",
				"SLO budget burn rate by window", base+`,window="slow"`)
			st.gAlert = cfg.Registry.GaugeL(cfg.MetricPrefix+"_slo_alert",
				"SLO burn-rate alert state (1 firing)", base)
		}
		m.states = append(m.states, st)
	}
	return m, nil
}

// ClassTick is one priority class's per-tick deltas.
type ClassTick struct {
	Class  int
	Total  uint64 // finished requests, every outcome
	Errors uint64 // non-ok outcomes
	// OKCount and OKBuckets describe the tick's successful-request
	// latency: delta bucket counts over Bounds (len(Bounds)+1, +Inf
	// last), as produced by HistCursor.Delta.
	OKCount   uint64
	Bounds    []float64
	OKBuckets []uint64
}

// Tick feeds one period's deltas and returns the alert transitions it
// caused. Classes missing from ticks contribute an all-zero sample.
func (m *Monitor) Tick(ticks []ClassTick) []AlertPayload {
	if m == nil {
		return nil
	}
	byClass := make(map[int]*ClassTick, len(ticks))
	for i := range ticks {
		byClass[ticks[i].Class] = &ticks[i]
	}
	var out []AlertPayload
	for _, st := range m.states {
		var bad, total uint64
		if tk := byClass[st.slo.Class]; tk != nil {
			switch st.slo.Kind {
			case SLOLatency:
				bad = CountAbove(tk.Bounds, tk.OKBuckets, st.slo.LatencyNs)
				total = tk.OKCount
			case SLOAvailability:
				bad = tk.Errors
				total = tk.Total
			}
		}
		st.fast.push(bad, total)
		st.slow.push(bad, total)
		fast := st.fast.burn(st.slo.Budget())
		slow := st.slow.burn(st.slo.Budget())
		st.gFast.Set(fast)
		st.gSlow.Set(slow)

		switch {
		case !st.firing && fast >= m.cfg.BurnThreshold && slow >= m.cfg.BurnThreshold:
			st.firing = true
			m.fired++
			out = append(out, m.alert(st, "firing", fast, slow))
		case st.firing && fast < m.cfg.BurnThreshold:
			st.firing = false
			out = append(out, m.alert(st, "resolved", fast, slow))
		}
		if st.firing {
			st.gAlert.Set(1)
		} else {
			st.gAlert.Set(0)
		}
	}
	return out
}

func (m *Monitor) alert(st *sloState, state string, fast, slow float64) AlertPayload {
	return AlertPayload{
		SLO: st.slo.Kind, Class: st.slo.Class, State: state,
		FastBurn: fast, SlowBurn: slow, Threshold: m.cfg.BurnThreshold,
	}
}

// Firing reports how many SLOs are currently in the firing state.
func (m *Monitor) Firing() int {
	if m == nil {
		return 0
	}
	n := 0
	for _, st := range m.states {
		if st.firing {
			n++
		}
	}
	return n
}

// FiredTotal reports alert activations over the monitor's lifetime.
func (m *Monitor) FiredTotal() uint64 {
	if m == nil {
		return 0
	}
	return m.fired
}
