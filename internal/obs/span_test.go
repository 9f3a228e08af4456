package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"sliceaware/internal/telemetry"
)

// TestDisabledTracerZeroAlloc pins the hot-path contract: with tracing
// disabled (nil tracer), the full per-request call sequence allocates
// nothing.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		rt := tr.Begin("get", 0)
		rt.StageStart(StageParse)
		rt.StageEnd(StageParse)
		rt.StageStart(StageInboxWait)
		rt.SetShard(1)
		rt.StageEnd(StageInboxWait)
		rt.SetOutcome("ok")
		tr.Finish(rt)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f/op, want 0", allocs)
	}
}

// TestUnsampledRequestZeroAlloc pins the same contract for an armed
// tracer's unsampled requests: Begin returns nil without allocating.
func TestUnsampledRequestZeroAlloc(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1 << 30})
	tr.Begin("get", 0) // burn the one sampled slot
	allocs := testing.AllocsPerRun(1000, func() {
		rt := tr.Begin("get", 0)
		rt.StageStart(StageParse)
		rt.StageEnd(StageParse)
		tr.Finish(rt)
	})
	if allocs != 0 {
		t.Fatalf("unsampled request allocated %.1f/op, want 0", allocs)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 16; i++ {
		if rt := tr.Begin("get", 0); rt != nil {
			sampled++
			tr.Finish(rt)
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 at 1/4, want 4", sampled)
	}
	if tr.seq.Load() != 16 || tr.Sampled() != 4 {
		t.Fatalf("Seq=%d Sampled=%d, want 16/4", tr.seq.Load(), tr.Sampled())
	}
	if got := len(tr.Traces()); got != 4 {
		t.Fatalf("retained %d traces, want 4", got)
	}
}

func TestTracerStageHistogramsAndChromeTrace(t *testing.T) {
	reg := telemetry.NewRegistry(2)
	tr := NewTracer(TracerConfig{SampleEvery: 1, Registry: reg, MetricName: "kvsd_stage_ns"})

	rt := tr.Begin("get", 3)
	if rt == nil {
		t.Fatal("SampleEvery 1 must sample every request")
	}
	rt.StageStart(StageParse)
	rt.StageEnd(StageParse)
	rt.SetShard(1)
	rt.StageStart(StageInboxWait)
	time.Sleep(time.Millisecond)
	rt.StageEnd(StageInboxWait)
	rt.StageStart(StageShardService)
	rt.StageStart(StageStoreOp)
	time.Sleep(time.Millisecond)
	rt.StageEnd(StageStoreOp)
	rt.StageEnd(StageShardService)
	rt.StageStart(StageReplyWrite)
	rt.StageEnd(StageReplyWrite)
	rt.SetOutcome("ok")
	tr.Finish(rt)

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`kvsd_stage_ns_bucket{stage="inbox_wait",le=`,
		`kvsd_stage_ns_count{stage="store_op"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// A stage that never ran must not be observed.
	if strings.Contains(prom.String(), `kvsd_stage_ns_count{stage="breaker"} 1`) {
		t.Error("breaker stage observed without running")
	}

	var out bytes.Buffer
	if err := tr.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(out.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace not a JSON array: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range events {
		names[ev.Name] = true
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
	}
	for _, want := range []string{"inbox_wait", "shard_service", "store_op", "request:get"} {
		if !names[want] {
			t.Errorf("chrome trace missing span %q (have %v)", want, names)
		}
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, Ring: 8})
	for i := 0; i < 100; i++ {
		rt := tr.Begin("set", 0)
		rt.StageStart(StageParse)
		rt.StageEnd(StageParse)
		tr.Finish(rt)
	}
	traces := tr.Traces()
	if len(traces) != 8 {
		t.Fatalf("ring retained %d, want 8", len(traces))
	}
	if traces[0].Seq != 93 || traces[7].Seq != 100 {
		t.Fatalf("ring holds seqs %d..%d, want 93..100", traces[0].Seq, traces[7].Seq)
	}
}

// BenchmarkTracerDisabled measures the whole disabled per-request span
// sequence — the cost every slicekvsd request pays when tracing is off.
// The contract: 0 allocs (TestDisabledTracerZeroAlloc pins it), a few ns.
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := tr.Begin("get", 0)
		rt.StageStart(StageParse)
		rt.StageEnd(StageParse)
		rt.StageStart(StageInboxWait)
		rt.SetShard(1)
		rt.StageEnd(StageInboxWait)
		rt.SetOutcome("ok")
		tr.Finish(rt)
	}
}

// BenchmarkTracerSampled measures the fully-traced request path (1-in-1
// sampling, histograms armed) for contrast.
func BenchmarkTracerSampled(b *testing.B) {
	reg := telemetry.NewRegistry(4)
	tr := NewTracer(TracerConfig{SampleEvery: 1, Registry: reg})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := tr.Begin("get", 0)
		rt.StageStart(StageParse)
		rt.StageEnd(StageParse)
		rt.StageStart(StageInboxWait)
		rt.SetShard(1)
		rt.StageEnd(StageInboxWait)
		rt.SetOutcome("ok")
		tr.Finish(rt)
	}
}
