// Package telemetry is the unified observability layer of the
// reproduction: a low-overhead metrics registry (per-core-sharded
// counters, gauges and mergeable fixed-bucket histograms), a sampled
// per-packet flight recorder (stage spans on the simulated clock plus a
// ring that always retains the last K packets and every dropped or
// fault-injected one), and a per-slice LLC heat timeline fed by the same
// uncore counters the paper's §2.1 methodology polls.
//
// Everything hangs off a *Collector. A nil Collector — and every handle it
// hands out — is inert: the disabled hot path pays one nil check per
// touch, allocates nothing, and provably cannot perturb the simulation
// (telemetry reads the simulated machine but never charges cycles, draws
// randomness, or reorders work).
//
// Exports: Prometheus text exposition (Registry.WritePrometheus), the
// heat timeline as JSON (Timeline.WriteJSON), and chrome://tracing-loadable
// span JSON (Collector.WriteChromeTrace).
package telemetry

import (
	"fmt"
	"io"

	"sliceaware/internal/llc"
)

// Config sizes a Collector. Zero values take the documented defaults.
type Config struct {
	// Shards is the per-core shard count for hot-path metrics (one per
	// polling core; default 1).
	Shards int
	// SampleEvery records full stage spans for every N-th packet
	// (default 64; 1 samples every packet).
	SampleEvery int
}

// The flight recorder's and heat timeline's sizes in every Collector.
const (
	// flightRingSize is how many most-recent packets the flight recorder
	// retains.
	flightRingSize = 1024
	// flightMaxDrops caps the retained dropped/fault-injected records.
	flightMaxDrops = 1 << 16
	// timelineIntervalNs is the heat-sampling period in simulated ns
	// (10 µs).
	timelineIntervalNs = 10_000
	// timelineMaxSamples bounds the series before pairwise decimation
	// doubles the interval.
	timelineMaxSamples = 4096
)

// Collector bundles the three telemetry surfaces and the simulated clock
// they share.
type Collector struct {
	reg      *Registry
	flight   *FlightRecorder
	timeline *Timeline
	nowNs    float64

	llc       *llc.SlicedLLC // most recently bound LLC; llc_ddio_* gauges read it
	llcGauges bool           // gauges registered once, surviving rebinds
}

// New builds an armed Collector.
func New(cfg Config) *Collector {
	sample := cfg.SampleEvery
	if sample == 0 {
		sample = 64
	}
	return &Collector{
		reg:      NewRegistry(cfg.Shards),
		flight:   NewFlightRecorder(flightRingSize, sample, flightMaxDrops),
		timeline: NewTimeline(timelineIntervalNs, timelineMaxSamples),
	}
}

// Registry returns the metrics registry (nil for a nil collector).
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Flight returns the flight recorder (nil for a nil collector).
func (c *Collector) Flight() *FlightRecorder {
	if c == nil {
		return nil
	}
	return c.flight
}

// Timeline returns the heat timeline (nil for a nil collector).
func (c *Collector) Timeline() *Timeline {
	if c == nil {
		return nil
	}
	return c.timeline
}

// SetNow advances the collector's view of the simulated clock; hooks that
// fire without a timestamp of their own (watchdog transitions deep in the
// driver path) are stamped with this.
func (c *Collector) SetNow(ns float64) {
	if c == nil {
		return
	}
	c.nowNs = ns
}

// Event annotates the timeline at the current simulated time.
func (c *Collector) Event(name string) {
	if c == nil {
		return
	}
	c.timeline.Event(c.nowNs, name)
}

// BindLLC points the heat timeline at a machine's LLC counters, installs
// the DDIO reconfiguration hook (every SetDDIOWays lands as a timeline
// event), and registers the llc_ddio_* export-time gauges: per-slice DDIO
// occupancy, cumulative fills and leak counters, and fill/evict-unread
// rates over the simulated clock. The gauges are registered once per
// collector and follow rebinds to a different LLC; re-binding the same LLC
// (a second DuT on the same machine) changes nothing.
func (c *Collector) BindLLC(l *llc.SlicedLLC) {
	if c == nil {
		return
	}
	c.timeline.Bind(l)
	if l == nil {
		return
	}
	c.llc = l
	l.SetReconfigHook(func(effectiveWays int) {
		c.Event(fmt.Sprintf("ddio_ways=%d", effectiveWays))
	})
	if c.llcGauges {
		return
	}
	c.llcGauges = true
	c.reg.GaugeFunc("llc_ddio_ways", "Ways DMA may currently allocate into", "",
		func() float64 { return float64(c.llc.DDIOWays()) })
	perMs := func(v uint64) float64 {
		if c.nowNs <= 0 {
			return 0
		}
		return float64(v) / (c.nowNs / 1e6)
	}
	for s := 0; s < l.Slices(); s++ {
		s := s
		lbl := fmt.Sprintf(`slice="%d"`, s)
		ev := func() llc.CBoEvents {
			if s >= c.llc.Slices() {
				return llc.CBoEvents{}
			}
			return c.llc.Events(s)
		}
		c.reg.GaugeFunc("llc_ddio_occupancy", "Valid lines resident in the DDIO ways, per slice", lbl,
			func() float64 {
				if s >= c.llc.Slices() {
					return 0
				}
				return float64(c.llc.DDIOOccupancy()[s])
			})
		c.reg.GaugeFunc("llc_ddio_fills", "Cumulative DMA fills, per slice", lbl,
			func() float64 { return float64(ev().DDIOFills) })
		c.reg.GaugeFunc("llc_ddio_evict_unread", "DMA-filled lines evicted before first read, per slice", lbl,
			func() float64 { return float64(ev().DDIOEvictUnread) })
		c.reg.GaugeFunc("llc_ddio_missed_first_touch", "First-touch reads that missed because the line leaked, per slice", lbl,
			func() float64 { return float64(ev().DDIOMissedFirstTouch) })
		c.reg.GaugeFunc("llc_ddio_fill_rate_per_ms", "DMA fill rate over the simulated clock, per slice", lbl,
			func() float64 { return perMs(ev().DDIOFills) })
		c.reg.GaugeFunc("llc_ddio_evict_unread_rate_per_ms", "Leaky-DMA eviction rate over the simulated clock, per slice", lbl,
			func() float64 { return perMs(ev().DDIOEvictUnread) })
	}
}

// WriteChromeTrace renders the flight recorder plus timeline annotations
// as a chrome://tracing-loadable trace.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if c == nil {
		return nil
	}
	return c.flight.WriteChromeTrace(w, c.timeline.Events())
}
