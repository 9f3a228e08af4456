package telemetry

import (
	"encoding/json"
	"io"

	"sliceaware/internal/llc"
)

// SliceSample is one heat snapshot: per-slice CBo event deltas accumulated
// since the previous sample, stamped with the simulated clock.
type SliceSample struct {
	TimeNs          float64  `json:"t_ns"`
	Lookups         []uint64 `json:"lookups"`
	Misses          []uint64 `json:"misses"`
	DDIOFills       []uint64 `json:"ddio_fills"`
	Evictions       []uint64 `json:"evictions"`
	DDIOEvictUnread []uint64 `json:"ddio_evict_unread"`
	DDIOMissedFirst []uint64 `json:"ddio_missed_first_touch"`
}

// TimelineEvent is a point annotation on the heat timeline's clock —
// watchdog mode transitions, DuT rebinds, experiment phase marks.
type TimelineEvent struct {
	TimeNs float64 `json:"t_ns"`
	Name   string  `json:"name"`
}

// Timeline periodically snapshots every slice's uncore counters (the same
// CBo/CHA counters the §2.1 polling methodology reads) during a run,
// producing per-slice lookups/misses/DDIO-fills/evictions time series.
// When the sample budget fills, adjacent samples are merged pairwise and
// the interval doubles — a deterministic decimation that keeps any run
// length bounded without losing total counts.
//
// A nil *Timeline is a no-op on every method.
type Timeline struct {
	src        *llc.SlicedLLC
	intervalNs float64
	maxSamples int

	started bool
	lastNs  float64
	prev    []llc.CBoEvents

	samples []SliceSample
	events  []TimelineEvent
}

// NewTimeline builds an unbound timeline sampling every intervalNs (> 0)
// of simulated time, decimating beyond maxSamples (≥ 2).
func NewTimeline(intervalNs float64, maxSamples int) *Timeline {
	maxSamples &^= 1 // pairwise decimation needs an even budget
	return &Timeline{intervalNs: intervalNs, maxSamples: maxSamples}
}

// Bind attaches the timeline to an LLC's counters and rebases the delta
// baseline. Re-binding to a different LLC (a new DuT in the same
// collection) is recorded as an event at the last known time; re-binding
// the LLC already bound (a second DuT on the same machine) is a no-op,
// so the shared series is neither rebased nor annotated.
func (t *Timeline) Bind(l *llc.SlicedLLC) {
	if t == nil {
		return
	}
	if t.src == l {
		return
	}
	if t.src != nil {
		t.events = append(t.events, TimelineEvent{TimeNs: t.lastNs, Name: "rebind"})
	}
	t.src = l
	t.prev = l.AllEvents()
	t.started = false
}

// Sample takes a snapshot if at least one interval elapsed since the last.
func (t *Timeline) Sample(nowNs float64) {
	if t == nil || t.src == nil {
		return
	}
	if !t.started {
		t.started = true
		t.lastNs = nowNs
		t.prev = t.src.AllEvents()
		return
	}
	if nowNs-t.lastNs < t.intervalNs {
		return
	}
	cur := t.src.AllEvents()
	n := len(cur)
	s := SliceSample{
		TimeNs:          nowNs,
		Lookups:         make([]uint64, n),
		Misses:          make([]uint64, n),
		DDIOFills:       make([]uint64, n),
		Evictions:       make([]uint64, n),
		DDIOEvictUnread: make([]uint64, n),
		DDIOMissedFirst: make([]uint64, n),
	}
	for i := range cur {
		s.Lookups[i] = cur[i].Lookups - t.prev[i].Lookups
		s.Misses[i] = cur[i].Misses - t.prev[i].Misses
		s.DDIOFills[i] = cur[i].DDIOFills - t.prev[i].DDIOFills
		s.Evictions[i] = cur[i].Evictions - t.prev[i].Evictions
		s.DDIOEvictUnread[i] = cur[i].DDIOEvictUnread - t.prev[i].DDIOEvictUnread
		s.DDIOMissedFirst[i] = cur[i].DDIOMissedFirstTouch - t.prev[i].DDIOMissedFirstTouch
	}
	t.prev = cur
	t.lastNs = nowNs
	t.samples = append(t.samples, s)
	if len(t.samples) >= t.maxSamples {
		t.decimate()
	}
}

// decimate merges adjacent sample pairs (summing deltas, keeping the later
// timestamp) and doubles the interval.
func (t *Timeline) decimate() {
	half := len(t.samples) / 2
	for i := 0; i < half; i++ {
		a, b := t.samples[2*i], t.samples[2*i+1]
		for j := range b.Lookups {
			b.Lookups[j] += a.Lookups[j]
			b.Misses[j] += a.Misses[j]
			b.DDIOFills[j] += a.DDIOFills[j]
			b.Evictions[j] += a.Evictions[j]
			b.DDIOEvictUnread[j] += a.DDIOEvictUnread[j]
			b.DDIOMissedFirst[j] += a.DDIOMissedFirst[j]
		}
		t.samples[i] = b
	}
	t.samples = t.samples[:half]
	t.intervalNs *= 2
}

// Event appends a point annotation at the given simulated time.
func (t *Timeline) Event(nowNs float64, name string) {
	if t == nil {
		return
	}
	t.events = append(t.events, TimelineEvent{TimeNs: nowNs, Name: name})
}

// Samples returns the collected series.
func (t *Timeline) Samples() []SliceSample {
	if t == nil {
		return nil
	}
	return t.samples
}

// Events returns the collected annotations.
func (t *Timeline) Events() []TimelineEvent {
	if t == nil {
		return nil
	}
	return t.events
}

// Totals sums every sample's deltas into one per-slice heat total.
func (t *Timeline) Totals() []llc.CBoEvents {
	if t == nil || t.src == nil {
		return nil
	}
	out := make([]llc.CBoEvents, t.src.Slices())
	for _, s := range t.samples {
		for i := range out {
			out[i].Lookups += s.Lookups[i]
			out[i].Misses += s.Misses[i]
			out[i].DDIOFills += s.DDIOFills[i]
			out[i].Evictions += s.Evictions[i]
			out[i].DDIOEvictUnread += s.DDIOEvictUnread[i]
			out[i].DDIOMissedFirstTouch += s.DDIOMissedFirst[i]
		}
	}
	return out
}

// WriteJSON renders the timeline as one JSON document. Nil-safe.
func (t *Timeline) WriteJSON(w io.Writer) error {
	out := struct {
		IntervalNs float64         `json:"interval_ns"`
		Slices     int             `json:"slices"`
		Samples    []SliceSample   `json:"samples"`
		Events     []TimelineEvent `json:"events"`
	}{Samples: []SliceSample{}, Events: []TimelineEvent{}}
	if t != nil {
		out.IntervalNs = t.intervalNs
		if t.src != nil {
			out.Slices = t.src.Slices()
		}
		out.Samples = append(out.Samples, t.samples...)
		out.Events = append(out.Events, t.events...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
