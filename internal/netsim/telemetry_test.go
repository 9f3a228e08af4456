package netsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/faults"
	"sliceaware/internal/nfv"
	"sliceaware/internal/telemetry"
	"sliceaware/internal/trace"
)

// buildTelemetryDuT assembles an 8-queue forwarding DuT with the given
// collector (nil = telemetry disabled) and optional injected wire loss.
func buildTelemetryDuT(t *testing.T, c *telemetry.Collector, dropProb float64) *DuT {
	t.Helper()
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: 8, RingSize: 256, PoolMbufs: 1024,
		HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DuTConfig{Machine: m, Port: port, Chain: chain, Telemetry: c}
	if dropProb > 0 {
		inj, err := faults.NewInjector(faults.Plan{
			Seed:   11,
			Events: []faults.Event{{Kind: faults.NICDrop, Probability: dropProb}},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
	}
	dut, err := NewDuT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dut
}

// TestTelemetryStageCoverage runs an instrumented DuT with every packet
// sampled and checks the three telemetry surfaces saw the run: full stage
// spans on completed packets, every wire drop in the side-log with its
// cause, heat on the slice timeline, and the pipeline counters in the
// Prometheus export.
func TestTelemetryStageCoverage(t *testing.T) {
	c := telemetry.New(telemetry.Config{Shards: 8, SampleEvery: 1})
	dut := buildTelemetryDuT(t, c, 0.05)
	gen, err := trace.NewCampusMix(rand.New(rand.NewSource(3)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRate(dut, gen, 2000, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("fault plan injected no drops — test needs loss to exercise the side-log")
	}

	f := c.Flight()
	if f.Seq() != 2000 {
		t.Errorf("flight recorder observed %d packets, want all 2000 offered", f.Seq())
	}
	drops := f.Drops()
	if uint64(len(drops)) != res.Dropped {
		t.Errorf("side-log holds %d drops, run reported %d", len(drops), res.Dropped)
	}
	for _, rec := range drops {
		if !rec.Dropped || rec.DropCause != "wire" {
			t.Fatalf("drop record %+v, want cause \"wire\"", rec)
		}
	}

	// Every completed sampled record must cover the full stage sequence.
	stagesSeen := map[telemetry.Stage]bool{}
	var checked int
	for _, rec := range f.Records() {
		if rec.Dropped || !rec.Sampled {
			continue
		}
		checked++
		has := map[telemetry.Stage]bool{}
		for _, sp := range rec.Spans {
			has[sp.Stage] = true
			stagesSeen[sp.Stage] = true
			if sp.EndNs < sp.StartNs {
				t.Fatalf("span %q runs backwards: %v → %v", sp.Name, sp.StartNs, sp.EndNs)
			}
		}
		for _, st := range []telemetry.Stage{
			telemetry.StageWire, telemetry.StageDDIO, telemetry.StageRxRing,
			telemetry.StageDequeue, telemetry.StageNF, telemetry.StageTx,
		} {
			if !has[st] {
				t.Fatalf("seq %d missing stage %s (spans %v)", rec.Seq, st, rec.Spans)
			}
		}
		if rec.DoneNs <= rec.ArrivalNs {
			t.Fatalf("seq %d done %v ≤ arrival %v", rec.Seq, rec.DoneNs, rec.ArrivalNs)
		}
	}
	if checked == 0 {
		t.Fatal("ring retained no completed sampled records")
	}

	// The heat timeline sampled during the run and saw the DDIO traffic.
	samples := c.Timeline().Samples()
	if len(samples) == 0 {
		t.Fatal("timeline collected no samples")
	}
	var lookups, fills uint64
	for _, ev := range c.Timeline().Totals() {
		lookups += ev.Lookups
		fills += ev.DDIOFills
	}
	if lookups == 0 || fills == 0 {
		t.Errorf("timeline totals: %d lookups, %d DDIO fills — want both > 0", lookups, fills)
	}

	// The registry carries the pipeline counters end to end.
	var buf bytes.Buffer
	if err := c.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dpdk_port_rx_packets_total",
		`dpdk_port_rx_dropped_total{cause="wire"}`,
		"netsim_packets_processed_total",
		"netsim_service_ns_bucket",
		"netsim_residency_ns_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus export missing %q", want)
		}
	}

	// The chrome trace renders and stays a valid JSON array.
	buf.Reset()
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "[\n") {
		t.Error("chrome trace does not open a JSON array")
	}
}

// TestTelemetryIsObservationOnly pins the determinism contract: the same
// workload produces a bit-identical Result and end state whether or not a
// collector is armed. One service loop runs both modes, so the whole
// Result (latencies, window, drop breakdown, fault counts) and the machine
// digest are compared, not just the outcome counts.
func TestTelemetryIsObservationOnly(t *testing.T) {
	run := func(c *telemetry.Collector) (Result, string) {
		dut := buildTelemetryDuT(t, c, 0.02)
		gen, err := trace.NewCampusMix(rand.New(rand.NewSource(9)), 1024)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRate(dut, gen, 1500, 40)
		if err != nil {
			t.Fatal(err)
		}
		return res, machineDigest(dut)
	}
	plain, plainState := run(nil)
	instrumented, instrState := run(telemetry.New(telemetry.Config{Shards: 8, SampleEvery: 1}))
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("telemetry perturbed the Result:\nplain:        %+v\ninstrumented: %+v", plain, instrumented)
	}
	if plainState != instrState {
		t.Fatalf("telemetry perturbed the end state:\n--- plain ---\n%s\n--- instrumented ---\n%s", plainState, instrState)
	}
}

// TestWatchdogDegradedOnTimeline deploys a fully wrong slice-hash profile
// with the watchdog armed and checks the mode transition lands on the heat
// timeline's clock, inside the sampled window.
func TestWatchdogDegradedOnTimeline(t *testing.T) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: 8, RingSize: 256, PoolMbufs: 1024,
		HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := faults.NewMispredictedHash(m.LLC.Hash(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := cachedirector.New(m, cachedirector.Config{Hash: wrong})
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Attach(port); err != nil {
		t.Fatal(err)
	}
	if err := dir.EnableWatchdog(cachedirector.WatchdogConfig{CheckEvery: 64}); err != nil {
		t.Fatal(err)
	}
	c := telemetry.New(telemetry.Config{Shards: 8})
	dir.SetTelemetry(c)
	chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
	if err != nil {
		t.Fatal(err)
	}
	dut, err := NewDuT(DuTConfig{Machine: m, Port: port, Chain: chain, Telemetry: c})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewCampusMix(rand.New(rand.NewSource(4)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRate(dut, gen, 3000, 40); err != nil {
		t.Fatal(err)
	}

	var degraded *telemetry.TimelineEvent
	for i, ev := range c.Timeline().Events() {
		if ev.Name == "watchdog_degraded" {
			degraded = &c.Timeline().Events()[i]
			break
		}
	}
	if degraded == nil {
		t.Fatalf("no watchdog_degraded event on the timeline (events %v, mode %v)",
			c.Timeline().Events(), dir.Mode())
	}
	samples := c.Timeline().Samples()
	if len(samples) == 0 {
		t.Fatal("timeline collected no samples")
	}
	last := samples[len(samples)-1].TimeNs
	if degraded.TimeNs <= 0 || degraded.TimeNs > last {
		t.Errorf("degraded event at %v ns, outside the sampled window (0, %v]", degraded.TimeNs, last)
	}

	// The watchdog's probe counters corroborate: every probe against a
	// fully wrong profile misses.
	var buf bytes.Buffer
	if err := c.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cachedirector_watchdog_probes_total",
		`cachedirector_watchdog_probes_total{outcome="miss"}`,
		"cachedirector_mode 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus export missing %q:\n%s", want, out)
		}
	}
}
