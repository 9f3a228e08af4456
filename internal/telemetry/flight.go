package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Stage names one step of a packet's life through the pipeline, in the
// order the black-box methodology of §5 would observe them.
type Stage int

const (
	// StageWire is the LoadGen arrival instant (the payload timestamp).
	StageWire Stage = iota
	// StageDDIO is the NIC DMA allocating the frame's lines into the LLC.
	StageDDIO
	// StageRxRing is the descriptor's wait on the RX ring (a duration:
	// arrival → burst dequeue).
	StageRxRing
	// StageDequeue is the PMD pulling the mbuf out of the ring.
	StageDequeue
	// StageNF is one network function's service (a duration per NF).
	StageNF
	// StageDriver is driver/PCIe/NIC per-packet work outside the NFs.
	StageDriver
	// StageTx is the transmit completion instant.
	StageTx
	// StageDrop is a loss, annotated with its cause.
	StageDrop
)

func (s Stage) String() string {
	switch s {
	case StageWire:
		return "wire_arrival"
	case StageDDIO:
		return "ddio_fill"
	case StageRxRing:
		return "rx_ring"
	case StageDequeue:
		return "burst_dequeue"
	case StageNF:
		return "nf"
	case StageDriver:
		return "driver"
	case StageTx:
		return "tx"
	case StageDrop:
		return "drop"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Span is one stage of one packet, in simulated nanoseconds. Instant
// stages have StartNs == EndNs.
type Span struct {
	Stage   Stage   `json:"stage"`
	Name    string  `json:"name"`
	StartNs float64 `json:"start_ns"`
	EndNs   float64 `json:"end_ns"`
}

// PacketRecord is one packet's flight log. Every packet offered while the
// recorder is armed gets a record (identity, timing, outcome); only
// sampled packets additionally carry full stage spans.
type PacketRecord struct {
	Seq       uint64  `json:"seq"` // arrival order, 1-based
	FlowID    uint64  `json:"flow"`
	Size      int     `json:"size"`
	Queue     int     `json:"queue"` // -1 when dropped before steering
	ArrivalNs float64 `json:"arrival_ns"`
	DoneNs    float64 `json:"done_ns"`
	Sampled   bool    `json:"sampled"`
	Dropped   bool    `json:"dropped"`
	DropCause string  `json:"drop_cause,omitempty"`
	// SlowScale is the fault injector's service stretch (0 when none
	// fired): any packet with SlowScale > 0 was fault-injected.
	SlowScale float64 `json:"slow_scale,omitempty"`
	Spans     []Span  `json:"spans,omitempty"`
}

// FlightRecorder keeps a bounded log of per-packet pipeline activity: a
// ring buffer that always retains the last K packets, full stage spans for
// every sampleEvery-th packet, and — separately, so bursty loss cannot
// rotate them out — every dropped or fault-injected packet with its cause.
//
// A nil *FlightRecorder is a no-op on every method.
type FlightRecorder struct {
	sampleEvery int
	ring        []*PacketRecord
	pos         int
	full        bool
	drops       []*PacketRecord
	maxDrops    int
	dropLost    uint64 // drops not retained once maxDrops was hit
	seq         uint64
}

// NewFlightRecorder builds a recorder keeping the last ringSize packets
// and up to maxDrops dropped ones (both positive), sampling full spans
// every sampleEvery packets (≤1 samples all).
func NewFlightRecorder(ringSize, sampleEvery, maxDrops int) *FlightRecorder {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &FlightRecorder{sampleEvery: sampleEvery, ring: make([]*PacketRecord, ringSize), maxDrops: maxDrops}
}

// Arrive opens a record for a packet the NIC accepted at simulated time t.
// Returns nil on a nil recorder.
func (f *FlightRecorder) Arrive(flow uint64, size, queue int, t float64) *PacketRecord {
	if f == nil {
		return nil
	}
	f.seq++
	rec := &PacketRecord{
		Seq: f.seq, FlowID: flow, Size: size, Queue: queue,
		ArrivalNs: t,
		Sampled:   (f.seq-1)%uint64(f.sampleEvery) == 0,
	}
	if rec.Sampled {
		rec.Spans = append(rec.Spans,
			Span{Stage: StageWire, Name: StageWire.String(), StartNs: t, EndNs: t},
			Span{Stage: StageDDIO, Name: StageDDIO.String(), StartNs: t, EndNs: t},
			Span{Stage: StageRxRing, Name: StageRxRing.String(), StartNs: t, EndNs: t},
		)
	}
	return rec
}

// Drop records a packet lost at time t with its cause. Dropped packets are
// always retained (up to maxDrops), regardless of sampling.
func (f *FlightRecorder) Drop(flow uint64, size, queue int, t float64, cause string) {
	if f == nil {
		return
	}
	f.seq++
	rec := &PacketRecord{
		Seq: f.seq, FlowID: flow, Size: size, Queue: queue,
		ArrivalNs: t, DoneNs: t,
		Dropped: true, DropCause: cause,
		Spans: []Span{{Stage: StageDrop, Name: "drop:" + cause, StartNs: t, EndNs: t}},
	}
	f.push(rec)
	if len(f.drops) < f.maxDrops {
		f.drops = append(f.drops, rec)
	} else {
		f.dropLost++
	}
}

// Complete closes a record opened by Arrive: service ran on [beginNs,
// endNs], nfSpans are the per-NF service spans (nil unless sampled), and
// slowScale is the injected service stretch (1 when none fired). A
// fault-stretched packet is retained in the drops side-log too, as a
// fault-injected packet.
func (f *FlightRecorder) Complete(rec *PacketRecord, beginNs, endNs, slowScale float64, nfSpans []Span) {
	if f == nil || rec == nil {
		return
	}
	rec.DoneNs = endNs
	if slowScale > 1 {
		rec.SlowScale = slowScale
	}
	if rec.Sampled {
		// Close the ring-wait span at service begin and lay out the rest.
		for i := range rec.Spans {
			if rec.Spans[i].Stage == StageRxRing {
				rec.Spans[i].EndNs = beginNs
			}
		}
		rec.Spans = append(rec.Spans, Span{Stage: StageDequeue, Name: StageDequeue.String(), StartNs: beginNs, EndNs: beginNs})
		serviceStart := beginNs
		if len(nfSpans) > 0 {
			if nfSpans[0].StartNs > serviceStart {
				rec.Spans = append(rec.Spans, Span{Stage: StageDriver, Name: "driver_rx", StartNs: serviceStart, EndNs: nfSpans[0].StartNs})
			}
			rec.Spans = append(rec.Spans, nfSpans...)
			if last := nfSpans[len(nfSpans)-1].EndNs; last < endNs {
				rec.Spans = append(rec.Spans, Span{Stage: StageDriver, Name: "driver_overhead", StartNs: last, EndNs: endNs})
			}
		} else {
			rec.Spans = append(rec.Spans, Span{Stage: StageDriver, Name: "service", StartNs: serviceStart, EndNs: endNs})
		}
		rec.Spans = append(rec.Spans, Span{Stage: StageTx, Name: StageTx.String(), StartNs: endNs, EndNs: endNs})
	}
	f.push(rec)
	if rec.SlowScale > 0 && !rec.Sampled {
		if len(f.drops) < f.maxDrops {
			f.drops = append(f.drops, rec)
		} else {
			f.dropLost++
		}
	}
}

func (f *FlightRecorder) push(rec *PacketRecord) {
	f.ring[f.pos] = rec
	f.pos++
	if f.pos == len(f.ring) {
		f.pos = 0
		f.full = true
	}
}

// Records returns the retained ring contents, oldest first.
func (f *FlightRecorder) Records() []*PacketRecord {
	if f == nil {
		return nil
	}
	var out []*PacketRecord
	if f.full {
		out = append(out, f.ring[f.pos:]...)
	}
	out = append(out, f.ring[:f.pos]...)
	return out
}

// Drops returns every retained dropped/fault-injected record, in order.
func (f *FlightRecorder) Drops() []*PacketRecord {
	if f == nil {
		return nil
	}
	return f.drops
}

// DropsLost reports drop records discarded after maxDrops was reached.
func (f *FlightRecorder) DropsLost() uint64 {
	if f == nil {
		return 0
	}
	return f.dropLost
}

// Seq reports the number of packets observed.
func (f *FlightRecorder) Seq() uint64 {
	if f == nil {
		return 0
	}
	return f.seq
}

// chromeEvent is one Trace Event Format entry. Timestamps are µs.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeTrace renders the ring and the drop side-log as chrome://
// tracing events — a JSON array with one event per line (the Trace Event
// "JSON Array Format", which chrome://tracing and Perfetto both load,
// written line-wise so it also greps/streams like JSONL). Thread id is the
// RX queue; extra events carry watchdog/timeline markers when provided.
func (f *FlightRecorder) WriteChromeTrace(w io.Writer, extra []TimelineEvent) error {
	if f == nil {
		return nil
	}
	var events []chromeEvent
	add := func(rec *PacketRecord) {
		tid := rec.Queue
		if tid < 0 {
			tid = 0
		}
		args := map[string]interface{}{"seq": rec.Seq, "flow": rec.FlowID, "size": rec.Size}
		if rec.SlowScale > 0 {
			args["slow_scale"] = rec.SlowScale
		}
		if rec.Dropped {
			events = append(events, chromeEvent{
				Name: "drop:" + rec.DropCause, Ph: "i", Ts: rec.ArrivalNs / 1000,
				Pid: 0, Tid: tid, S: "t", Args: args,
			})
			return
		}
		if !rec.Sampled {
			return
		}
		for _, sp := range rec.Spans {
			if sp.EndNs > sp.StartNs {
				events = append(events, chromeEvent{
					Name: sp.Name, Ph: "X", Ts: sp.StartNs / 1000, Dur: (sp.EndNs - sp.StartNs) / 1000,
					Pid: 0, Tid: tid, Args: args,
				})
			} else {
				events = append(events, chromeEvent{
					Name: sp.Name, Ph: "i", Ts: sp.StartNs / 1000,
					Pid: 0, Tid: tid, S: "t", Args: args,
				})
			}
		}
	}
	inRing := make(map[*PacketRecord]bool, len(f.ring))
	for _, rec := range f.Records() {
		if rec != nil {
			inRing[rec] = true
			add(rec)
		}
	}
	// The drop side-log outlives the ring: emit whatever the ring has
	// already rotated out, so every loss stays visible in the trace.
	for _, rec := range f.drops {
		if !inRing[rec] {
			add(rec)
		}
	}
	for _, ev := range extra {
		events = append(events, chromeEvent{
			Name: ev.Name, Ph: "i", Ts: ev.TimeNs / 1000, Pid: 0, Tid: 0, S: "g",
		})
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
