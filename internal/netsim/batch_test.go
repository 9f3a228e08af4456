package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/faults"
	"sliceaware/internal/nfv"
	"sliceaware/internal/overload"
	"sliceaware/internal/trace"
)

// The contract under test in this file: the per-packet reference path
// (runRateScalar/runPPSScalar over DuT.Arrive, scalar_test.go) is the
// oracle, and the one production path (RunRate/RunPPS over a Burst) must
// reproduce it bit for bit — same Result (latencies included) AND same
// final simulator state, because the machine's caches carry over between
// back-to-back runs and any divergence would compound.

type batchBedConfig struct {
	queues   int
	steering dpdk.Steering
	faults   func() *faults.Injector // fresh injector per DuT (own RNG)
	overload func() *OverloadConfig  // fresh config per DuT (own AQM state)
}

func buildBatchBed(t *testing.T, cfg batchBedConfig) *DuT {
	t.Helper()
	if cfg.queues == 0 {
		cfg.queues = 8
	}
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: cfg.queues, RingSize: 256, PoolMbufs: 1024,
		HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: cfg.steering,
	})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
	if err != nil {
		t.Fatal(err)
	}
	var fi *faults.Injector
	if cfg.faults != nil {
		fi = cfg.faults()
	}
	var ov *OverloadConfig
	if cfg.overload != nil {
		ov = cfg.overload()
	}
	dut, err := NewDuT(DuTConfig{Machine: m, Port: port, Chain: chain, Faults: fi, Overload: ov})
	if err != nil {
		t.Fatal(err)
	}
	return dut
}

// machineDigest flattens every piece of simulator state a run can touch —
// all LLC slice tables, every core's private caches, cycles and
// stats, port counters and FlowDirector rules — into one comparable
// string. Cache table iteration order is deterministic (set-major, way-bit
// order), so equal digests mean byte-identical tables.
func machineDigest(d *DuT) string {
	var sb strings.Builder
	l := d.machine.LLC
	for s := 0; s < l.Slices(); s++ {
		c := l.SliceCache(s)
		fmt.Fprintf(&sb, "slice%d:%v\n", s, c.Lines())
	}
	for i := 0; i < d.machine.Cores(); i++ {
		core := d.machine.Core(i)
		fmt.Fprintf(&sb, "core%d:c=%d|l1=%v|l2=%v|%+v\n",
			i, core.Cycles(), core.L1().Lines(), core.L2().Lines(), core.Stats())
	}
	fmt.Fprintf(&sb, "port:%+v|rules=%d\n", d.port.Stats(), d.port.FlowRules())
	return sb.String()
}

// runEquivalence runs the same workload through the reference (scalar)
// and the production (batch) path on identical fresh testbeds and
// requires bit-identical Results and end state.
func runEquivalence(t *testing.T, name string, cfg batchBedConfig, seed int64, count int, run func(*DuT, trace.Generator) (Result, error), runBatch func(*DuT, trace.Generator) (Result, error)) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		scalar := buildBatchBed(t, cfg)
		batch := buildBatchBed(t, cfg)
		gs, err := trace.NewCampusMix(rand.New(rand.NewSource(seed)), 256)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := trace.NewCampusMix(rand.New(rand.NewSource(seed)), 256)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := run(scalar, gs)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := runBatch(batch, gb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs, rb) {
			t.Fatalf("batch Result diverged from scalar (count=%d):\nscalar: %+v\nbatch:  %+v", count, rs, rb)
		}
		if ds, db := machineDigest(scalar), machineDigest(batch); ds != db {
			t.Fatalf("batch end state diverged from scalar (count=%d):\n--- scalar ---\n%s\n--- batch ---\n%s", count, ds, db)
		}
	})
}

// TestBatchMatchesScalarSizes sweeps burst sizes across the oddball edge
// cases — 1 packet (the window quarter is packet 0), sizes around the PMD
// burst (31/32/33), a non-multiple tail — on the pure-RSS testbed.
func TestBatchMatchesScalarSizes(t *testing.T) {
	for _, count := range []int{1, 2, 3, 31, 32, 33, 63, 500, 2000} {
		cfg := batchBedConfig{steering: dpdk.RSS}
		runEquivalence(t, fmt.Sprintf("count=%d", count), cfg, int64(count), count,
			func(d *DuT, g trace.Generator) (Result, error) { return runRateScalar(d, g, count, 100) },
			func(d *DuT, g trace.Generator) (Result, error) { return RunRate(d, g, count, 100) },
		)
	}
}

// TestBatchMatchesScalarPPS covers the fixed-packet-rate pacing path.
func TestBatchMatchesScalarPPS(t *testing.T) {
	cfg := batchBedConfig{steering: dpdk.RSS}
	runEquivalence(t, "pps", cfg, 11, 800,
		func(d *DuT, g trace.Generator) (Result, error) { return runPPSScalar(d, g, 800, 2e6) },
		func(d *DuT, g trace.Generator) (Result, error) { return RunPPS(d, g, 800, 2e6) },
	)
}

// TestBatchMatchesScalarFlowDirector pins the stateful-steering contract:
// FlowDirector installs a rule the first time each flow is seen, so the
// batch path must refuse to presteer and steer inline — end state
// (including the rule table) must still match the scalar path exactly.
func TestBatchMatchesScalarFlowDirector(t *testing.T) {
	cfg := batchBedConfig{steering: dpdk.FlowDirector}
	runEquivalence(t, "fdir", cfg, 7, 1500,
		func(d *DuT, g trace.Generator) (Result, error) { return runRateScalar(d, g, 1500, 100) },
		func(d *DuT, g trace.Generator) (Result, error) { return RunRate(d, g, 1500, 100) },
	)
	port, err := dpdk.NewPort(func() *cpusim.Machine {
		m, _ := cpusim.NewMachine(arch.HaswellE52667v3())
		return m
	}(), dpdk.PortConfig{Queues: 4, RingSize: 64, PoolMbufs: 256, Steering: dpdk.FlowDirector})
	if err != nil {
		t.Fatal(err)
	}
	if port.CanPresteer() {
		t.Error("FlowDirector port claims presteerable steering")
	}
}

// TestBatchMatchesScalarUnderFaults arms identical chaos plans on both
// paths: every injector draw (wire drop, corruption, ring overflow, pool
// exhaustion, burst truncation, service scaling) must happen at the same
// point in the packet sequence for the RNG streams to stay aligned.
func TestBatchMatchesScalarUnderFaults(t *testing.T) {
	for _, count := range []int{33, 2000} {
		cfg := batchBedConfig{
			steering: dpdk.RSS,
			faults:   func() *faults.Injector { return faults.MustNewInjector(chaosPlan(42)) },
		}
		runEquivalence(t, fmt.Sprintf("faults-count=%d", count), cfg, 9, count,
			func(d *DuT, g trace.Generator) (Result, error) { return runRateScalar(d, g, count, 100) },
			func(d *DuT, g trace.Generator) (Result, error) { return RunRate(d, g, count, 100) },
		)
	}
}

// overloadBedConfig arms CoDel AQM plus two-class priority shedding on a
// deliberately small testbed so a high offered rate forces a mix of
// delivered, AQM-dropped and shed packets.
func overloadBed() batchBedConfig {
	return batchBedConfig{
		queues:   2,
		steering: dpdk.RSS,
		overload: func() *OverloadConfig {
			return &OverloadConfig{
				AQM: func(int) overload.AQM {
					c, err := overload.NewCoDel(overload.CoDelConfig{})
					if err != nil {
						panic(err)
					}
					return c
				},
				Shed: &overload.ShedConfig{},
			}
		},
	}
}

// TestBatchMatchesScalarUnderOverload drives the overload-armed testbed
// into AQM pressure and shedding, where verdicts are mixed and the
// backpressure read at each arrival depends on exact ring state.
func TestBatchMatchesScalarUnderOverload(t *testing.T) {
	runEquivalence(t, "overload", overloadBed(), 13, 4000,
		func(d *DuT, g trace.Generator) (Result, error) { return runRateScalar(d, g, 4000, 80) },
		func(d *DuT, g trace.Generator) (Result, error) { return RunRate(d, g, 4000, 80) },
	)
}

// TestBurstVerdictsAccount checks the per-packet Verdicts array against
// the run's aggregate counters on an overloaded testbed: every offered
// packet is booked exactly once as delivered, dropped or shed.
func TestBurstVerdictsAccount(t *testing.T) {
	dut := buildBatchBed(t, overloadBed())
	g, err := trace.NewCampusMix(rand.New(rand.NewSource(13)), 256)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBurst(0)
	if err := b.FillRate(g, 4000, 80); err != nil {
		t.Fatal(err)
	}
	res, err := RunBurst(dut, b)
	if err != nil {
		t.Fatal(err)
	}
	var tally [3]uint64
	for _, v := range b.Verdicts[:b.count] {
		tally[v]++
	}
	if tally[VerdictDelivered] != res.Delivered || tally[VerdictDropped] != res.Dropped || tally[VerdictShed] != res.Shed {
		t.Fatalf("verdict tally %v vs Result delivered=%d dropped=%d shed=%d",
			tally, res.Delivered, res.Dropped, res.Shed)
	}
	if got := tally[0] + tally[1] + tally[2]; got != uint64(res.OfferedPkts) {
		t.Fatalf("verdicts cover %d of %d offered packets", got, res.OfferedPkts)
	}
	if res.Shed == 0 || res.Dropped == 0 {
		t.Fatalf("testbed not overloaded enough to mix verdicts: %+v", res)
	}
}

// TestBatchFuzzEquivalence is the randomized sweep: random burst sizes
// (including around-burst tails), rates, queue counts and steering modes,
// each compared scalar-vs-batch on fresh testbeds.
func TestBatchFuzzEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	steerings := []dpdk.Steering{dpdk.RSS, dpdk.FlowDirector}
	queueChoices := []int{1, 2, 8}
	for i := 0; i < 12; i++ {
		count := 1 + rng.Intn(400)
		rate := 1 + rng.Float64()*150
		cfg := batchBedConfig{
			queues:   queueChoices[rng.Intn(len(queueChoices))],
			steering: steerings[rng.Intn(len(steerings))],
		}
		seed := rng.Int63()
		runEquivalence(t, fmt.Sprintf("fuzz-%d", i), cfg, seed, count,
			func(d *DuT, g trace.Generator) (Result, error) { return runRateScalar(d, g, count, rate) },
			func(d *DuT, g trace.Generator) (Result, error) { return RunRate(d, g, count, rate) },
		)
	}
}

// TestResetRerunMatchesScalar is the Reset regression test: after a run
// and a Reset, a second RunRate must still match a reference DuT that did
// the same run/Reset/run sequence. The reference path has no burst
// scratch, so any state leaking across Reset (stale next-due bound, stale
// burst fill) diverges here.
func TestResetRerunMatchesScalar(t *testing.T) {
	cfg := batchBedConfig{steering: dpdk.RSS}
	scalar := buildBatchBed(t, cfg)
	batch := buildBatchBed(t, cfg)
	runBoth := func(seed int64, count int, rate float64) (Result, Result) {
		gs, err := trace.NewCampusMix(rand.New(rand.NewSource(seed)), 256)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := trace.NewCampusMix(rand.New(rand.NewSource(seed)), 256)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := runRateScalar(scalar, gs, count, rate)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := RunRate(batch, gb, count, rate)
		if err != nil {
			t.Fatal(err)
		}
		return rs, rb
	}
	rs1, rb1 := runBoth(21, 900, 100)
	if !reflect.DeepEqual(rs1, rb1) {
		t.Fatalf("first run diverged:\n%+v\nvs\n%+v", rs1, rb1)
	}
	scalar.Reset()
	batch.Reset()
	rs2, rb2 := runBoth(22, 700, 60)
	if !reflect.DeepEqual(rs2, rb2) {
		t.Fatalf("post-Reset rerun diverged:\n%+v\nvs\n%+v", rs2, rb2)
	}
	if ds, db := machineDigest(scalar), machineDigest(batch); ds != db {
		t.Fatalf("post-Reset end state diverged:\n--- scalar ---\n%s\n--- batch ---\n%s", ds, db)
	}
}

// TestRunRateResultsSurviveNextRun pins that RunRate's DuT-owned scratch
// Burst never recycles latency storage: a Result kept from one run is
// untouched by a Reset and a second run on the same DuT.
func TestRunRateResultsSurviveNextRun(t *testing.T) {
	dut := buildBatchBed(t, batchBedConfig{steering: dpdk.RSS})
	run := func(seed int64) Result {
		g, err := trace.NewCampusMix(rand.New(rand.NewSource(seed)), 256)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRate(dut, g, 600, 100)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(31)
	kept := append([]float64(nil), first.LatenciesNs...)
	dut.Reset()
	second := run(32)
	if !reflect.DeepEqual(first.LatenciesNs, kept) {
		t.Fatal("second RunRate overwrote the first Result's LatenciesNs")
	}
	if reflect.DeepEqual(second.LatenciesNs, kept) {
		t.Fatal("second run reproduced the first run's latencies; the check above proves nothing")
	}
}

// TestBurstEdgeCases pins the degenerate inputs: an invalid count or rate
// returns ErrInvalidRun on the production path and the reference alike,
// an empty burst errors, and a recycled NewBurst run is refillable.
func TestBurstEdgeCases(t *testing.T) {
	dut := buildBatchBed(t, batchBedConfig{steering: dpdk.RSS})
	if _, err := RunBurst(dut, NewBurst(0)); !errors.Is(err, ErrInvalidRun) {
		t.Errorf("RunBurst(empty) = %v, want ErrInvalidRun", err)
	}
	for _, run := range []struct {
		name string
		fn   func(*DuT, trace.Generator, int, float64) (Result, error)
	}{
		{"RunRate", RunRate}, {"runRateScalar", runRateScalar},
		{"RunPPS", RunPPS}, {"runPPSScalar", runPPSScalar},
	} {
		for _, bad := range []struct {
			count int
			rate  float64
		}{{0, 100}, {100, 0}, {100, -1}} {
			if _, err := run.fn(dut, nil, bad.count, bad.rate); !errors.Is(err, ErrInvalidRun) {
				t.Errorf("%s(count=%d, rate=%v) = %v, want ErrInvalidRun", run.name, bad.count, bad.rate, err)
			}
		}
	}

	// A NewBurst must be refillable and rerunnable after Reset without
	// perturbing results (the bench loop's usage pattern).
	g, err := trace.NewCampusMix(rand.New(rand.NewSource(3)), 256)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBurst(64)
	if err := b.FillRate(g, 64, 100); err != nil {
		t.Fatal(err)
	}
	r1, err := RunBurst(dut, b)
	if err != nil {
		t.Fatal(err)
	}
	lat1 := append([]float64(nil), r1.LatenciesNs...)
	dut.Reset()
	dut.Port().ResetStats()
	r2, err := RunBurst(dut, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.LatenciesNs) != len(lat1) {
		t.Fatalf("rerun produced %d latencies, first run %d", len(r2.LatenciesNs), len(lat1))
	}
}
