// Package uncore exposes the per-slice performance monitoring unit the
// paper's methodology depends on (§2.1): the CBo (Haswell) or CHA (Skylake)
// counters. Software programs an event per slice, runs a probe loop, and
// reads back per-slice deltas — exactly the interface this package models
// over the simulated LLC.
package uncore

import (
	"fmt"

	"sliceaware/internal/llc"
)

// Event selects what each slice's counter accumulates.
type Event int

const (
	// EventLookups counts every probe that reached the slice
	// (LLC_LOOKUP.ANY in Intel's uncore documentation).
	EventLookups Event = iota
	// EventMisses counts probes that missed.
	EventMisses
	// EventDDIOFills counts DMA allocations.
	EventDDIOFills
	// EventEvictions counts displaced lines.
	EventEvictions
	// EventDDIOEvictUnread counts DMA-filled lines evicted before any core
	// read them — the "leaky DMA" producer-side signal.
	EventDDIOEvictUnread
	// EventDDIOMissedFirstTouch counts first-touch reads of DMA-filled
	// lines that missed to DRAM because the line leaked — the consumer-side
	// damage of leaky DMA.
	EventDDIOMissedFirstTouch
)

func (e Event) String() string {
	switch e {
	case EventLookups:
		return "LLC_LOOKUP.ANY"
	case EventMisses:
		return "LLC_LOOKUP.MISS"
	case EventDDIOFills:
		return "LLC_DDIO.FILL"
	case EventEvictions:
		return "LLC_VICTIMS.ANY"
	case EventDDIOEvictUnread:
		return "LLC_DDIO.EVICT_UNREAD"
	case EventDDIOMissedFirstTouch:
		return "LLC_DDIO.MISS_FIRST_TOUCH"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Monitor is a programmed measurement session over all slices' counters.
type Monitor struct {
	llc      *llc.SlicedLLC
	event    Event
	baseline []llc.CBoEvents
	running  bool
}

// NewMonitor attaches to the LLC's counters.
func NewMonitor(l *llc.SlicedLLC) *Monitor {
	return &Monitor{llc: l}
}

// Start programs the event and snapshots current counts; deltas accumulate
// until Read.
func (m *Monitor) Start(e Event) {
	m.event = e
	m.baseline = m.llc.AllEvents()
	m.running = true
}

// Read returns each slice's event delta since Start. The monitor keeps
// running; call Start again to rebase.
func (m *Monitor) Read() ([]uint64, error) {
	if !m.running {
		return nil, fmt.Errorf("uncore: Read before Start")
	}
	now := m.llc.AllEvents()
	out := make([]uint64, len(now))
	for i := range now {
		out[i] = pick(now[i], m.event) - pick(m.baseline[i], m.event)
	}
	return out, nil
}

// Stop ends the session.
func (m *Monitor) Stop() { m.running = false }

func pick(ev llc.CBoEvents, e Event) uint64 {
	switch e {
	case EventLookups:
		return ev.Lookups
	case EventMisses:
		return ev.Misses
	case EventDDIOFills:
		return ev.DDIOFills
	case EventEvictions:
		return ev.Evictions
	case EventDDIOEvictUnread:
		return ev.DDIOEvictUnread
	case EventDDIOMissedFirstTouch:
		return ev.DDIOMissedFirstTouch
	default:
		return 0
	}
}

// ArgMax returns the index of the largest delta and whether it dominates
// (strictly exceeds every other count by the given factor). Polling-based
// slice identification requires a dominant winner to be trustworthy.
//
// Contract, as the table-driven tests pin down:
//   - empty input → (-1, false); all-zero deltas → (first index, false):
//     no signal is never a confident answer.
//   - An exact tie at the top never dominates for any dominance ≥ 1 —
//     the comparison is against second+1, so equal counts always fail.
//     (A dominance factor < 1 waives that guarantee; callers poll with
//     factors ≥ 1, typically 2.0.)
//   - A single slice with any non-zero count dominates trivially.
func ArgMax(deltas []uint64, dominance float64) (idx int, ok bool) {
	if len(deltas) == 0 {
		return -1, false
	}
	best, second := -1, uint64(0)
	var bestN uint64
	for i, d := range deltas {
		if best == -1 || d > bestN {
			if best != -1 {
				second = bestN
			}
			best, bestN = i, d
		} else if d > second {
			second = d
		}
	}
	if bestN == 0 {
		return best, false
	}
	return best, float64(bestN) >= dominance*float64(second+1)
}
