// Package obs is the wall-clock observability layer for serving mode:
// sampled request-scoped tracing (span.go), per-second wide events and the
// streaming stats-sink client (wideevent.go, sink.go), and multi-window
// SLO burn-rate monitoring (slo.go).
//
// internal/telemetry observes the *simulated* machine on the simulated
// clock; this package observes the *daemon* on the real clock. The two
// share the registry: obs feeds wall-clock histograms and gauges into the
// same telemetry.Registry the daemon already exports on /metrics.
//
// Everything here honors the nil-is-free contract PR 2 established for
// the simulated-clock collector: a nil *Tracer, nil *ReqTrace, nil
// *Client and nil *Monitor are no-ops on every method, with zero
// allocation and one predictable branch on the hot path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sliceaware/internal/telemetry"
)

// ReqStage names one step of a request's life through the slicekvsd
// admission path, in execution order. The set mirrors the serving
// pipeline: parse → drain gate → shedder → ladder → breaker → inbox wait
// → shard service → store op → reply write.
type ReqStage uint8

const (
	// StageParse is protocol parsing: command line fields, key ranking,
	// and (for SET) the data-block read.
	StageParse ReqStage = iota
	// StageDrainGate is the lifecycle check + in-flight registration.
	StageDrainGate
	// StageShed is the priority shedder's admit decision.
	StageShed
	// StageLadder is the degradation-ladder level check.
	StageLadder
	// StageBreaker is the per-shard circuit breaker's Allow.
	StageBreaker
	// StageInboxWait is the queue wait: the wait for the shard lock.
	StageInboxWait
	// StageShardService is the shard's whole service of the request under
	// its lock (AQM, fault injection, store op, slowdown stretch).
	StageShardService
	// StageStoreOp is the slice-aware store operation alone.
	StageStoreOp
	// StageReplyWrite is the response serialization + socket flush.
	StageReplyWrite

	// NumReqStages bounds the per-trace stage arrays.
	NumReqStages
)

func (s ReqStage) String() string {
	switch s {
	case StageParse:
		return "parse"
	case StageDrainGate:
		return "drain_gate"
	case StageShed:
		return "shed"
	case StageLadder:
		return "ladder"
	case StageBreaker:
		return "breaker"
	case StageInboxWait:
		return "inbox_wait"
	case StageShardService:
		return "shard_service"
	case StageStoreOp:
		return "store_op"
	case StageReplyWrite:
		return "reply_write"
	default:
		return fmt.Sprintf("ReqStage(%d)", int(s))
	}
}

// ReqTrace is one sampled request's span record. The connection handler
// owns Op/Class/outcome and stamps every stage. Stage timestamps are
// atomic stores, which keeps a trace safe to read from another goroutine
// while its request is still in flight.
//
// All methods are nil-safe: the unsampled (and disabled) path carries a
// nil *ReqTrace and pays one branch per call.
type ReqTrace struct {
	Seq   uint64
	Op    string
	Class int

	shard   int32
	outcome string

	startNs [NumReqStages]int64 // offsets from the tracer epoch
	endNs   [NumReqStages]int64

	t *Tracer
}

// StageStart stamps the beginning of stage s at the current wall clock.
func (r *ReqTrace) StageStart(s ReqStage) {
	if r == nil {
		return
	}
	atomic.StoreInt64(&r.startNs[s], r.t.nowNs())
}

// StageEnd stamps the end of stage s at the current wall clock.
func (r *ReqTrace) StageEnd(s ReqStage) {
	if r == nil {
		return
	}
	atomic.StoreInt64(&r.endNs[s], r.t.nowNs())
}

// SetShard records which shard the request routed to (trace metadata and
// the chrome-trace thread lane).
func (r *ReqTrace) SetShard(id int) {
	if r == nil {
		return
	}
	atomic.StoreInt32(&r.shard, int32(id))
}

// SetOutcome records the response outcome ("ok", "shed", "timeout", ...).
// Owned by the connection handler; last write wins on multi-key GETs.
func (r *ReqTrace) SetOutcome(o string) {
	if r == nil {
		return
	}
	r.outcome = o
}

// stage reads one stage's span with atomic loads (see ReqTrace). ok only
// when the stage both started and finished in order.
func (r *ReqTrace) stage(s ReqStage) (startNs, endNs int64, ok bool) {
	startNs = atomic.LoadInt64(&r.startNs[s])
	endNs = atomic.LoadInt64(&r.endNs[s])
	return startNs, endNs, startNs > 0 && endNs >= startNs
}

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// SampleEvery samples a full trace for every Nth request (≤1 traces
	// every request).
	SampleEvery int
	// Ring bounds retained completed traces (default 4096).
	Ring int
	// Registry, when non-nil, receives one wall-clock histogram per stage
	// under MetricName, fed from every sampled trace at Finish.
	Registry *telemetry.Registry
	// MetricName is the stage-histogram family name (default
	// "request_stage_ns").
	MetricName string
	// Buckets are the stage-histogram bucket bounds in nanoseconds
	// (default 512 ns .. ~1 s in doubling buckets).
	Buckets []float64
}

// Tracer is the sampled request-span recorder: a bounded ring of
// completed traces plus a per-stage wall-clock histogram family. A nil
// *Tracer is disabled: Begin returns nil and the whole per-request call
// sequence (Begin, stage marks, Finish) is branch-only — zero
// allocations, no atomics, no time reads.
type Tracer struct {
	sampleEvery uint64
	start       time.Time
	seq         atomic.Uint64
	sampled     atomic.Uint64

	hist [NumReqStages]*telemetry.Histogram

	mu   sync.Mutex
	ring []*ReqTrace
	pos  int
	full bool
}

// NewTracer builds an armed tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.Ring < 1 {
		cfg.Ring = 4096
	}
	if cfg.MetricName == "" {
		cfg.MetricName = "request_stage_ns"
	}
	if cfg.Buckets == nil {
		cfg.Buckets = telemetry.ExpBuckets(512, 2, 21)
	}
	t := &Tracer{
		sampleEvery: uint64(cfg.SampleEvery),
		start:       time.Now(),
		ring:        make([]*ReqTrace, cfg.Ring),
	}
	if cfg.Registry != nil {
		for s := ReqStage(0); s < NumReqStages; s++ {
			t.hist[s] = cfg.Registry.HistogramL(cfg.MetricName,
				"Wall-clock request stage latency",
				fmt.Sprintf("stage=%q", s.String()), cfg.Buckets)
		}
	}
	return t
}

// nowNs is the trace clock: wall nanoseconds since the tracer epoch.
// Monotonic (time.Since uses the monotonic reading).
func (t *Tracer) nowNs() int64 { return int64(time.Since(t.start)) }

// Begin opens a trace for the next request, or returns nil when the
// request falls outside the sample or the tracer is nil.
func (t *Tracer) Begin(op string, class int) *ReqTrace {
	if t == nil {
		return nil
	}
	seq := t.seq.Add(1)
	if t.sampleEvery > 1 && (seq-1)%t.sampleEvery != 0 {
		return nil
	}
	t.sampled.Add(1)
	return &ReqTrace{Seq: seq, Op: op, Class: class, shard: -1, t: t}
}

// Finish closes a trace: every completed stage is observed into the
// per-stage histogram (on the request's shard slot, so concurrent
// handlers do not contend) and the trace is pushed into the ring.
func (t *Tracer) Finish(tr *ReqTrace) {
	if t == nil || tr == nil {
		return
	}
	shard := int(atomic.LoadInt32(&tr.shard))
	for s := ReqStage(0); s < NumReqStages; s++ {
		if start, end, ok := tr.stage(s); ok && end > start {
			t.hist[s].Observe(shard, float64(end-start))
		}
	}
	t.mu.Lock()
	t.ring[t.pos] = tr
	t.pos++
	if t.pos == len(t.ring) {
		t.pos = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Sampled reports how many requests carried a full trace.
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// Traces returns the retained completed traces, oldest first.
func (t *Tracer) Traces() []*ReqTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*ReqTrace
	if t.full {
		out = append(out, t.ring[t.pos:]...)
	}
	out = append(out, t.ring[:t.pos]...)
	return out
}

// traceEvent is one Trace Event Format entry (timestamps in µs), the
// same shape telemetry.FlightRecorder emits for the simulated clock.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the retained traces as chrome://tracing /
// Perfetto events: one enclosing "request" span plus one span per
// completed stage, laned by shard (tid), timestamped on the wall clock.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	var events []traceEvent
	for _, tr := range t.Traces() {
		if tr == nil {
			continue
		}
		tid := int(atomic.LoadInt32(&tr.shard))
		if tid < 0 {
			tid = 0
		}
		args := map[string]any{"seq": tr.Seq, "op": tr.Op, "class": tr.Class}
		if tr.outcome != "" {
			args["outcome"] = tr.outcome
		}
		var reqStart, reqEnd int64
		for s := ReqStage(0); s < NumReqStages; s++ {
			start, end, ok := tr.stage(s)
			if !ok || end <= start {
				continue
			}
			if reqStart == 0 || start < reqStart {
				reqStart = start
			}
			if end > reqEnd {
				reqEnd = end
			}
			events = append(events, traceEvent{
				Name: s.String(), Ph: "X",
				Ts: float64(start) / 1000, Dur: float64(end-start) / 1000,
				Pid: 1, Tid: tid, Args: args,
			})
		}
		if reqEnd > reqStart {
			events = append(events, traceEvent{
				Name: "request:" + tr.Op, Ph: "X",
				Ts: float64(reqStart) / 1000, Dur: float64(reqEnd-reqStart) / 1000,
				Pid: 0, Tid: tid, Args: args,
			})
		}
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
