package netsim

import (
	"math/rand"
	"reflect"
	"sort"
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

// buildOverloadDuT assembles a small forwarding DuT (few queues, so it
// saturates at modest offered rates) with the given overload config.
func buildOverloadDuT(t *testing.T, queues int, ov *OverloadConfig) *DuT {
	t.Helper()
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: queues, RingSize: 256, PoolMbufs: 1024,
		HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: dpdk.RSS,
	})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
	if err != nil {
		t.Fatal(err)
	}
	dut, err := NewDuT(DuTConfig{Machine: m, Port: port, Chain: chain, Overload: ov})
	if err != nil {
		t.Fatal(err)
	}
	return dut
}

func codelFactory(t *testing.T, cfg overload.CoDelConfig) func(int) overload.AQM {
	t.Helper()
	return func(int) overload.AQM {
		c, err := overload.NewCoDel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// Satellite: every faults sentinel that can surface as an RX drop — and
// both overload sentinels — must map to a distinct, non-"unknown"
// flight-recorder label. The kind enumeration is walked exhaustively (the
// String() fallback marks the end), so adding a fault kind without
// classifying it here fails the test instead of silently falling through
// to "unknown".
func TestDropCauseExhaustive(t *testing.T) {
	// Kinds that surface as an RX drop through Port.Deliver, with a plan
	// that forces exactly that drop on the first packet.
	dropKinds := map[faults.Kind]faults.Plan{
		faults.NICDrop:          {Events: []faults.Event{{Kind: faults.NICDrop, Probability: 1}}},
		faults.NICCorrupt:       {Events: []faults.Event{{Kind: faults.NICCorrupt, Probability: 1}}},
		faults.RingOverflow:     {Events: []faults.Event{{Kind: faults.RingOverflow, Probability: 1}}},
		faults.MempoolExhausted: {Events: []faults.Event{{Kind: faults.MempoolExhausted, Probability: 1}}},
	}
	// Kinds that never produce an RX drop (they perturb timing, batching
	// or the kvs path instead).
	nonDropKinds := map[faults.Kind]bool{
		faults.BurstTruncate:       true,
		faults.CoreSlowdown:        true,
		faults.MigrationContention: true,
	}

	// Walk the enumeration; Kind.String() falls back to "Kind(n)" past the
	// last defined value.
	for k := faults.Kind(0); !strings.HasPrefix(k.String(), "Kind("); k++ {
		_, isDrop := dropKinds[k]
		if !isDrop && !nonDropKinds[k] {
			t.Fatalf("fault kind %v is classified neither as drop-producing nor as non-drop; "+
				"add it to this test (and to dropCause if it can surface as an RX drop)", k)
		}
	}

	labels := map[string]string{} // label → source, to catch collisions
	record := func(source, label string) {
		if label == "unknown" {
			t.Errorf("%s maps to the catch-all %q label", source, label)
		}
		if prev, dup := labels[label]; dup {
			t.Errorf("label %q assigned to both %s and %s", label, prev, source)
		}
		labels[label] = source
	}

	// Drive each drop-producing kind through the real delivery path and
	// label whatever the port reports.
	for k, plan := range dropKinds {
		dut := buildFaultyDuT(t, faults.MustNewInjector(plan))
		if v := dut.arrive(&trace.Packet{Size: 64}, 0, -1); v == VerdictDelivered {
			t.Fatalf("%v: P=1 plan did not drop the first packet", k)
		}
		cause := dut.Port().LastDropCause()
		if cause == nil {
			t.Fatalf("%v: drop left no cause", k)
		}
		record(k.String(), dropCause(cause))
	}
	// The un-injected ring/pool sentinels share their injected kin's label
	// by design (same mechanism, different trigger) — assert they resolve,
	// without requiring distinctness from the injected variants.
	for _, sent := range []error{dpdk.ErrRingFull, dpdk.ErrPoolExhausted} {
		if dropCause(sent) == "unknown" {
			t.Errorf("bare sentinel %v falls through to unknown", sent)
		}
	}
	// The overload sentinel family.
	record("overload.ErrShed", dropCause(overload.ErrShed))
	record("overload.ErrAQM", dropCause(overload.ErrAQM))
}

func TestOverloadSheddingOrdersClasses(t *testing.T) {
	dut := buildOverloadDuT(t, 2, &OverloadConfig{
		AQM:  codelFactory(t, overload.CoDelConfig{}),
		Shed: &overload.ShedConfig{},
	})
	gen, err := trace.NewCampusMix(rand.New(rand.NewSource(11)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	// 2 queues saturate near ~19 Gbps on the campus mix; 60 offered is
	// deep overload.
	res, err := RunRate(dut, gen, 30_000, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("deep overload shed nothing")
	}
	if res.Delivered+res.Dropped+res.Shed != uint64(res.OfferedPkts) {
		t.Errorf("accounting: delivered %d + dropped %d + shed %d != offered %d",
			res.Delivered, res.Dropped, res.Shed, res.OfferedPkts)
	}
	var fromClasses uint64
	for _, n := range res.ShedByClass {
		fromClasses += n
	}
	if fromClasses != res.Shed {
		t.Errorf("ShedByClass sums to %d, Shed = %d", fromClasses, res.Shed)
	}
	// Shed *rates* must be strictly ordered: class 0 loses the largest
	// fraction of its offered packets, the top class the smallest.
	offered, shed := dut.Shedder().Stats()
	rate := func(c int) float64 { return float64(shed[c]) / float64(offered[c]) }
	for c := 1; c < dut.Shedder().Classes(); c++ {
		if offered[c] == 0 {
			t.Fatalf("class %d saw no traffic; workload too small", c)
		}
		if rate(c) >= rate(c-1) {
			t.Errorf("class %d shed rate %.3f not strictly below class %d rate %.3f",
				c, rate(c), c-1, rate(c-1))
		}
	}
}

func TestAQMBoundsP99ResidencyUnderOverload(t *testing.T) {
	run := func(ov *OverloadConfig) Result {
		dut := buildOverloadDuT(t, 2, ov)
		gen, err := trace.NewCampusMix(rand.New(rand.NewSource(12)), 1024)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRate(dut, gen, 30_000, 40)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	taildrop := run(nil)
	codel := run(&OverloadConfig{AQM: codelFactory(t, overload.CoDelConfig{})})
	if codel.DropBreakdown.RxDropAQM == 0 {
		t.Fatal("CoDel never dropped past saturation")
	}
	// Compare steady state: skip the first half, which contains CoDel's
	// control-law ramp (the queue fills before the drop rate catches up).
	p99 := func(ls []float64) float64 {
		s := append([]float64(nil), ls[len(ls)/2:]...)
		sort.Float64s(s)
		return s[len(s)*99/100]
	}
	td, cd := p99(taildrop.LatenciesNs), p99(codel.LatenciesNs)
	if cd >= td/2 {
		t.Errorf("CoDel p99 residency %.0f ns not well below tail-drop %.0f ns", cd, td)
	}
}

// The byte-identity pin: an armed-but-inert overload layer (an AQM that
// can never drop, a shedder whose thresholds are unreachable below
// saturation) must reproduce the disarmed pipeline exactly — latencies,
// throughput, drops, duration.
func TestInertOverloadMatchesDisabled(t *testing.T) {
	run := func(ov *OverloadConfig) Result {
		dut := buildOverloadDuT(t, 8, ov)
		gen, err := trace.NewCampusMix(rand.New(rand.NewSource(13)), 1024)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRate(dut, gen, 8000, 40)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	pressureObs := 0
	inert := run(&OverloadConfig{
		AQM:      codelFactory(t, overload.CoDelConfig{TargetNs: 1e15, IntervalNs: 1e15}),
		Shed:     &overload.ShedConfig{BaseFrac: 0.999, MaxFrac: 1.0},
		Pressure: func(nowNs, pressure float64) { pressureObs++ },
	})
	if inert.Shed != 0 || inert.DropBreakdown.RxDropAQM != 0 {
		t.Fatalf("inert config acted: shed %d, aqm drops %d", inert.Shed, inert.DropBreakdown.RxDropAQM)
	}
	if pressureObs == 0 {
		t.Error("pressure callback never invoked")
	}
	// Compare everything except the overload-only fields.
	inert.ShedByClass = nil
	if !reflect.DeepEqual(plain, inert) {
		t.Errorf("inert overload perturbed the run:\nplain %+v\ninert %+v",
			summarize(plain), summarize(inert))
	}
}

// summarize strips the bulky latency list for failure messages.
func summarize(r Result) Result {
	r.LatenciesNs = nil
	return r
}
