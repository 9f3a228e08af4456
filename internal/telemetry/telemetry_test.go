package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
)

func TestCounterShardMerge(t *testing.T) {
	r := NewRegistry(4)
	if r.shards != 4 {
		t.Fatalf("shards = %d, want 4", r.shards)
	}
	c := r.Counter("test_total", "a test counter")
	for shard := 0; shard < 4; shard++ {
		c.Add(shard, uint64(shard+1))
	}
	if got := c.Value(); got != 1+2+3+4 {
		t.Errorf("merged Value() = %d, want 10", got)
	}
	// Out-of-range shards fold to shard 0 rather than panicking.
	c.Inc(-1)
	c.Inc(99)
	if got := c.Value(); got != 12 {
		t.Errorf("Value() after out-of-range Inc = %d, want 12", got)
	}
	// Same name+labels returns the same handle, not a fresh series.
	if r.Counter("test_total", "a test counter") != c {
		t.Error("re-registering the same counter returned a different handle")
	}
}

func TestCounterLabelsDistinct(t *testing.T) {
	r := NewRegistry(1)
	ring := r.CounterL("drops_total", "drops", `cause="ring"`)
	pool := r.CounterL("drops_total", "drops", `cause="pool"`)
	if ring == pool {
		t.Fatal("differently-labelled series share a handle")
	}
	ring.Inc(0)
	ring.Inc(0)
	pool.Inc(0)
	if ring.Value() != 2 || pool.Value() != 1 {
		t.Errorf("labelled series mixed: ring=%d pool=%d", ring.Value(), pool.Value())
	}
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry(1)
	g := r.GaugeL("mode", "current mode", "")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge Value() = %v, want 2.5", got)
	}
	occupancy := 7.0
	r.GaugeFunc("ring_occupancy", "ring fill", `queue="0"`, func() float64 { return occupancy })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `ring_occupancy{queue="0"} 7`) {
		t.Errorf("GaugeFunc not evaluated at export:\n%s", buf.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(2)
	h := r.Histogram("lat_ns", "latency", []float64{10, 100, 1000})
	h.Observe(0, 5)    // ≤10
	h.Observe(1, 10)   // exactly on a bound counts toward that le bucket
	h.Observe(0, 50)   // ≤100
	h.Observe(1, 5000) // overflow → +Inf
	counts, sum, count := h.Merged()
	wantCounts := []uint64{2, 1, 0, 1}
	if len(counts) != len(wantCounts) {
		t.Fatalf("Merged counts len = %d, want %d", len(counts), len(wantCounts))
	}
	for i, w := range wantCounts {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
	if count != 4 || sum != 5+10+50+5000 {
		t.Errorf("Merged sum=%v count=%d, want 5065/4", sum, count)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(256, 2, 4)
	want := []float64{256, 512, 1024, 2048}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if got := DefLatencyBucketsNs(); len(got) != 16 || got[0] != 256 {
		t.Errorf("DefLatencyBucketsNs() = %v", got)
	}
}

// TestWritePrometheusFormat checks the exposition output line by line:
// every family gets exactly one HELP and one TYPE, every sample line parses
// as `name value` or `name{labels} value`, and histogram buckets are
// cumulative and end in +Inf == _count.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry(2)
	c := r.Counter("pkts_total", "packets")
	c.Add(0, 40)
	c.Add(1, 2)
	r.CounterL("pkts_total", "packets", `cause="ring"`).Inc(0)
	r.GaugeL("mode", "mode", "").Set(1)
	h := r.Histogram("svc_ns", "service time", []float64{10, 100})
	h.Observe(0, 7)
	h.Observe(1, 50)
	h.Observe(0, 5000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP pkts_total packets",
		"# TYPE pkts_total counter",
		"pkts_total 42",
		`pkts_total{cause="ring"} 1`,
		"# TYPE mode gauge",
		"# TYPE svc_ns histogram",
		`svc_ns_bucket{le="10"} 1`,
		`svc_ns_bucket{le="100"} 2`,
		`svc_ns_bucket{le="+Inf"} 3`,
		"svc_ns_sum 5057",
		"svc_ns_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing line %q:\n%s", want, out)
		}
	}
	help := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			help[strings.Fields(line)[2]]++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("unparseable sample line %q", line)
		}
	}
	for name, n := range help {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines, want 1", name, n)
		}
	}
}

func TestFlightRecorderRingKeepsLastK(t *testing.T) {
	f := NewFlightRecorder(4, 1, 16)
	for i := 0; i < 10; i++ {
		rec := f.Arrive(uint64(i), 64, 0, float64(i*100))
		f.Complete(rec, float64(i*100+10), float64(i*100+20), 1, nil)
	}
	recs := f.Records()
	if len(recs) != 4 {
		t.Fatalf("ring retained %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(7 + i); rec.Seq != want {
			t.Errorf("ring[%d].Seq = %d, want %d (oldest first)", i, rec.Seq, want)
		}
	}
	if f.Seq() != 10 {
		t.Errorf("Seq() = %d, want 10", f.Seq())
	}
}

func TestFlightRecorderDropsSurviveRotation(t *testing.T) {
	f := NewFlightRecorder(2, 64, 3)
	f.Drop(1, 64, -1, 10, "wire")
	for i := 0; i < 8; i++ {
		rec := f.Arrive(uint64(i), 64, 1, float64(20+i))
		f.Complete(rec, 30, 40, 1, nil)
	}
	// The wire drop has long rotated out of the 2-deep ring...
	for _, rec := range f.Records() {
		if rec.Dropped {
			t.Error("dropped record still in ring after 8 arrivals")
		}
	}
	// ...but the side-log still has it, with its cause.
	drops := f.Drops()
	if len(drops) != 1 || drops[0].DropCause != "wire" || drops[0].Queue != -1 {
		t.Fatalf("Drops() = %+v, want one wire drop", drops)
	}
	// maxDrops caps the side-log; overflow is counted, not silently lost.
	f.Drop(2, 64, 0, 50, "ring")
	f.Drop(3, 64, 0, 51, "ring")
	f.Drop(4, 64, 0, 52, "pool")
	if len(f.Drops()) != 3 {
		t.Errorf("side-log holds %d, want maxDrops=3", len(f.Drops()))
	}
	if f.DropsLost() != 1 {
		t.Errorf("DropsLost() = %d, want 1", f.DropsLost())
	}
}

func TestFlightRecorderSampledSpans(t *testing.T) {
	f := NewFlightRecorder(16, 2, 16)
	// Packet 1 (seq 1) is sampled; packet 2 is not.
	r1 := f.Arrive(7, 128, 3, 100)
	if !r1.Sampled {
		t.Fatal("first packet should be sampled with sampleEvery=2")
	}
	nf := []Span{
		{Stage: StageNF, Name: "nf:router", StartNs: 260, EndNs: 300},
		{Stage: StageNF, Name: "nf:fw", StartNs: 300, EndNs: 380},
	}
	f.Complete(r1, 250, 400, 1, nf)

	stages := map[string][2]float64{}
	for _, sp := range r1.Spans {
		stages[sp.Name] = [2]float64{sp.StartNs, sp.EndNs}
	}
	for name, want := range map[string][2]float64{
		"wire_arrival":    {100, 100},
		"ddio_fill":       {100, 100},
		"rx_ring":         {100, 250}, // closed at service begin
		"burst_dequeue":   {250, 250},
		"driver_rx":       {250, 260}, // gap before the first NF
		"nf:router":       {260, 300},
		"nf:fw":           {300, 380},
		"driver_overhead": {380, 400}, // gap after the last NF
		"tx":              {400, 400},
	} {
		got, ok := stages[name]
		if !ok {
			t.Errorf("sampled record missing span %q (have %v)", name, r1.Spans)
			continue
		}
		if got != want {
			t.Errorf("span %q = %v, want %v", name, got, want)
		}
	}

	r2 := f.Arrive(8, 64, 0, 500)
	if r2.Sampled {
		t.Fatal("second packet should not be sampled with sampleEvery=2")
	}
	f.Complete(r2, 510, 520, 1, nil)
	if len(r2.Spans) != 0 {
		t.Errorf("unsampled record carries %d spans, want 0", len(r2.Spans))
	}
	if r2.DoneNs != 520 {
		t.Errorf("unsampled record DoneNs = %v, want 520", r2.DoneNs)
	}
}

func TestFlightRecorderFaultInjectedRetained(t *testing.T) {
	f := NewFlightRecorder(2, 1<<20, 16) // only packet 1 sampled, tiny ring
	f.Complete(f.Arrive(1, 64, 0, 5), 6, 9, 1, nil)
	rec := f.Arrive(2, 64, 0, 10)
	f.Complete(rec, 20, 80, 3.5, nil) // fault injector stretched service 3.5×
	f.Complete(f.Arrive(3, 64, 0, 90), 95, 99, 1, nil)
	f.Complete(f.Arrive(4, 64, 0, 100), 105, 109, 1, nil)
	drops := f.Drops()
	if len(drops) != 1 || drops[0].SlowScale != 3.5 {
		t.Fatalf("fault-injected packet not retained in side-log: %+v", drops)
	}
}

// TestChromeTrace renders a mixed ring+drops recorder and checks the output
// is one JSON array whose events cover every emitted stage, with each drop
// appearing exactly once even when it sits in both the ring and the
// side-log.
func TestChromeTrace(t *testing.T) {
	f := NewFlightRecorder(16, 1, 16)
	rec := f.Arrive(7, 128, 2, 100)
	f.Complete(rec, 250, 400, 1, []Span{{Stage: StageNF, Name: "nf:router", StartNs: 250, EndNs: 400}})
	f.Drop(8, 64, -1, 500, "wire")

	var buf bytes.Buffer
	extra := []TimelineEvent{{TimeNs: 300, Name: "watchdog_degraded"}}
	if err := f.WriteChromeTrace(&buf, extra); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	names := map[string]int{}
	for _, ev := range events {
		names[ev["name"].(string)]++
		if ev["name"] == "nf:router" {
			if ev["ph"] != "X" || ev["ts"].(float64) != 0.25 || ev["dur"].(float64) != 0.15 {
				t.Errorf("nf span mis-rendered: %v (want X @0.25µs dur 0.15µs)", ev)
			}
			if ev["tid"].(float64) != 2 {
				t.Errorf("nf span tid = %v, want RX queue 2", ev["tid"])
			}
		}
		if ev["name"] == "watchdog_degraded" && ev["s"] != "g" {
			t.Errorf("timeline event scope = %v, want global", ev["s"])
		}
	}
	for _, want := range []string{"wire_arrival", "rx_ring", "nf:router", "tx", "drop:wire", "watchdog_degraded"} {
		if names[want] == 0 {
			t.Errorf("trace missing event %q (have %v)", want, names)
		}
	}
	if names["drop:wire"] != 1 {
		t.Errorf("drop emitted %d times, want exactly once (ring+side-log dedup)", names["drop:wire"])
	}
	// One event per line between the brackets, so the file also streams as
	// JSONL.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "[" || lines[len(lines)-1] != "]" {
		t.Errorf("trace should open with [ and close with ]")
	}
	if got := len(lines) - 2; got != len(events) {
		t.Errorf("%d body lines for %d events, want one per line", got, len(events))
	}
}

func TestTimelineSamplingAndTotals(t *testing.T) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(1000, 64)
	tl.Bind(m.LLC)
	tl.Sample(0) // arms the baseline, no sample yet
	if len(tl.Samples()) != 0 {
		t.Fatal("baseline Sample produced a sample")
	}

	core := m.Core(0)
	for i := 0; i < 100; i++ {
		core.ReadPhys(uint64(i) << 12) // distinct lines → LLC lookups
	}
	tl.Sample(500) // within the interval: no sample
	if len(tl.Samples()) != 0 {
		t.Fatal("Sample before the interval elapsed produced a sample")
	}
	tl.Sample(1500)
	if len(tl.Samples()) != 1 {
		t.Fatalf("got %d samples, want 1", len(tl.Samples()))
	}
	s := tl.Samples()[0]
	if s.TimeNs != 1500 {
		t.Errorf("sample stamped %v, want 1500", s.TimeNs)
	}
	var lookups uint64
	for _, v := range s.Lookups {
		lookups += v
	}
	if lookups != 100 {
		t.Errorf("first sample saw %d lookups, want 100", lookups)
	}

	// A second window with its own traffic: deltas, not cumulative counts.
	for i := 0; i < 40; i++ {
		core.ReadPhys(uint64(1000+i) << 12)
	}
	tl.Sample(3000)
	var second uint64
	for _, v := range tl.Samples()[1].Lookups {
		second += v
	}
	if second != 40 {
		t.Errorf("second sample saw %d lookups, want delta 40", second)
	}

	var total uint64
	for _, ev := range tl.Totals() {
		total += ev.Lookups
	}
	if total != 140 {
		t.Errorf("Totals lookups = %d, want 140", total)
	}
}

func TestTimelineDecimation(t *testing.T) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(100, 4)
	tl.Bind(m.LLC)
	tl.Sample(0)
	core := m.Core(0)
	pa := uint64(0)
	for i := 1; i <= 4; i++ {
		for j := 0; j < 10; j++ {
			core.ReadPhys(pa << 12)
			pa++
		}
		tl.Sample(float64(i * 100))
	}
	// The 4th sample hit maxSamples: pairs merged, interval doubled.
	if got := len(tl.Samples()); got != 2 {
		t.Fatalf("after decimation %d samples remain, want 2", got)
	}
	if tl.intervalNs != 200 {
		t.Errorf("interval = %v ns, want doubled to 200", tl.intervalNs)
	}
	for i, s := range tl.Samples() {
		var lk uint64
		for _, v := range s.Lookups {
			lk += v
		}
		if lk != 20 {
			t.Errorf("decimated sample %d holds %d lookups, want merged 20", i, lk)
		}
	}
	// Timestamps keep the later of each pair.
	if tl.Samples()[0].TimeNs != 200 || tl.Samples()[1].TimeNs != 400 {
		t.Errorf("decimated timestamps = %v/%v, want 200/400",
			tl.Samples()[0].TimeNs, tl.Samples()[1].TimeNs)
	}
	// Totals are preserved across decimation.
	var total uint64
	for _, ev := range tl.Totals() {
		total += ev.Lookups
	}
	if total != 40 {
		t.Errorf("Totals lookups = %d, want 40", total)
	}
}

func TestTimelineEventsAndJSON(t *testing.T) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(100, 64)
	tl.Bind(m.LLC)
	tl.Sample(0)
	tl.Event(50, "watchdog_degraded")
	tl.Event(80, "watchdog_recovered")
	m.Core(0).ReadPhys(0)
	tl.Sample(150)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		IntervalNs float64         `json:"interval_ns"`
		Slices     int             `json:"slices"`
		Samples    []SliceSample   `json:"samples"`
		Events     []TimelineEvent `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline JSON does not parse: %v", err)
	}
	if doc.Slices != m.LLC.Slices() || doc.IntervalNs != 100 {
		t.Errorf("header = %d slices / %v ns, want %d / 100", doc.Slices, doc.IntervalNs, m.LLC.Slices())
	}
	if len(doc.Samples) != 1 || len(doc.Events) != 2 {
		t.Fatalf("export has %d samples / %d events, want 1/2", len(doc.Samples), len(doc.Events))
	}
	if doc.Events[0].Name != "watchdog_degraded" || doc.Events[1].Name != "watchdog_recovered" {
		t.Errorf("events out of order: %v", doc.Events)
	}
}

func TestCollectorDefaultsAndClock(t *testing.T) {
	c := New(Config{})
	if c.Registry() == nil || c.Flight() == nil || c.Timeline() == nil {
		t.Fatal("armed collector returned nil surfaces")
	}
	c.SetNow(1234)
	c.Event("mark")
	evs := c.Timeline().Events()
	if len(evs) != 1 || evs[0].TimeNs != 1234 || evs[0].Name != "mark" {
		t.Errorf("Event not stamped with the collector clock: %v", evs)
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(trace) != 1 || trace[0].Name != "mark" || trace[0].Ts != 1.234 {
		t.Errorf("chrome trace = %+v, want the one timeline mark at 1.234 µs", trace)
	}
}

// TestNilCollectorZeroAlloc pins the disabled-telemetry contract: the whole
// hot-path surface of a nil Collector allocates nothing and is safe to
// call. This is what lets every pipeline component carry telemetry handles
// unconditionally.
func TestNilCollectorZeroAlloc(t *testing.T) {
	var c *Collector
	ctr := c.Registry().Counter("x_total", "x")
	g := c.Registry().GaugeL("g", "g", "")
	h := c.Registry().Histogram("h_ns", "h", nil)
	allocs := testing.AllocsPerRun(100, func() {
		ctr.Inc(0)
		ctr.Add(3, 7)
		g.Set(1)
		h.Observe(0, 42)
		rec := c.Flight().Arrive(1, 64, 0, 10)
		c.Flight().Complete(rec, 20, 30, 1, nil)
		c.Flight().Drop(2, 64, 0, 40, "ring")
		c.Timeline().Sample(100)
		c.SetNow(100)
		c.Event("mark")
	})
	if allocs != 0 {
		t.Errorf("nil-collector hot path allocates %v per run, want 0", allocs)
	}
	if c.Flight().Seq() != 0 || len(c.Flight().Drops()) != 0 {
		t.Error("nil collector recorded state")
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteChromeTrace wrote %d bytes, err %v", buf.Len(), err)
	}
	if err := c.Registry().WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WritePrometheus wrote %d bytes, err %v", buf.Len(), err)
	}
}

// BenchmarkDisabled measures the disabled-telemetry hot path — the price
// every per-packet touch pays when no collector is armed. Expect ~ns/op
// and 0 allocs/op.
func BenchmarkDisabled(b *testing.B) {
	var c *Collector
	ctr := c.Registry().Counter("x_total", "x")
	h := c.Registry().Histogram("h_ns", "h", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctr.Inc(i & 7)
		h.Observe(i&7, float64(i))
		rec := c.Flight().Arrive(uint64(i), 64, i&7, float64(i))
		c.Flight().Complete(rec, float64(i), float64(i+10), 1, nil)
		c.Timeline().Sample(float64(i))
	}
}

// BenchmarkEnabledCounter is the armed counterpart: one sharded counter
// update per op.
func BenchmarkEnabledCounter(b *testing.B) {
	r := NewRegistry(8)
	ctr := r.Counter("x_total", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctr.Inc(i & 7)
	}
}
