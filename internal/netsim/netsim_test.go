package netsim

import (
	"math/rand"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/nfv"
	"sliceaware/internal/stats"
	"sliceaware/internal/telemetry"
	"sliceaware/internal/trace"
)

// buildDuT assembles an 8-queue forwarding DuT; withCD attaches CacheDirector.
func buildDuT(t *testing.T, withCD bool, steering dpdk.Steering) *DuT {
	t.Helper()
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: 8, RingSize: 256, PoolMbufs: 1024,
		HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: steering,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withCD {
		d, err := cachedirector.New(m, cachedirector.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Attach(port); err != nil {
			t.Fatal(err)
		}
	}
	chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
	if err != nil {
		t.Fatal(err)
	}
	dut, err := NewDuT(DuTConfig{Machine: m, Port: port, Chain: chain})
	if err != nil {
		t.Fatal(err)
	}
	return dut
}

func TestLowRateNoQueueing(t *testing.T) {
	dut := buildDuT(t, false, dpdk.RSS)
	gen, err := trace.NewFixedSize(rand.New(rand.NewSource(1)), 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPPS(dut, gen, 2000, 1000) // Fig 12 conditions
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Delivered) != 2000 || res.Dropped != 0 {
		t.Fatalf("delivered/dropped = %d/%d", res.Delivered, res.Dropped)
	}
	if len(res.LatenciesNs) != 2000 {
		t.Fatalf("%d latencies", len(res.LatenciesNs))
	}
	s := stats.Summarize(res.LatenciesNs)
	// At 1000 pps there is no queueing: P99 ≈ service time, well under
	// the 1 ms inter-arrival gap.
	if s.P99 > 10_000 {
		t.Errorf("P99 = %v ns at 1000 pps — queueing where none should exist", s.P99)
	}
	if s.Min <= 0 {
		t.Errorf("non-positive latency %v", s.Min)
	}
}

func TestOverloadQueuesAndDrops(t *testing.T) {
	dut := buildDuT(t, false, dpdk.RSS)
	gen, err := trace.NewCampusMix(rand.New(rand.NewSource(2)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	low, err := RunRate(dut, gen, 5000, 20)
	if err != nil {
		t.Fatal(err)
	}
	dut.Reset()
	dut.Port().ResetStats()
	high, err := RunRate(dut, gen, 5000, 100)
	if err != nil {
		t.Fatal(err)
	}
	sl := stats.Summarize(low.LatenciesNs)
	sh := stats.Summarize(high.LatenciesNs)
	if sh.P99 <= sl.P99 {
		t.Errorf("P99 at 100G (%v) not above P99 at 20G (%v)", sh.P99, sl.P99)
	}
	if high.AchievedGbps > NICCapGbps+1 {
		t.Errorf("achieved %v Gbps above NIC cap", high.AchievedGbps)
	}
	if high.AchievedGbps <= 0 {
		t.Error("no throughput at 100G")
	}
}

func TestCacheDirectorReducesServiceTime(t *testing.T) {
	gen1, _ := trace.NewFixedSize(rand.New(rand.NewSource(3)), 64, 256)
	gen2, _ := trace.NewFixedSize(rand.New(rand.NewSource(3)), 64, 256)

	base := buildDuT(t, false, dpdk.FlowDirector)
	cd := buildDuT(t, true, dpdk.FlowDirector)

	rb, err := RunPPS(base, gen1, 3000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := RunPPS(cd, gen2, 3000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	mb := stats.Mean(rb.LatenciesNs)
	mc := stats.Mean(rc.LatenciesNs)
	if mc >= mb {
		t.Errorf("CacheDirector mean %v ≥ baseline %v — placement not helping", mc, mb)
	}
}

func TestRunValidation(t *testing.T) {
	dut := buildDuT(t, false, dpdk.RSS)
	gen, _ := trace.NewFixedSize(rand.New(rand.NewSource(1)), 64, 1)
	if _, err := RunRate(dut, gen, 0, 10); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := RunRate(dut, gen, 10, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := RunPPS(dut, gen, 0, 10); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := RunPPS(dut, gen, 10, -1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewDuT(DuTConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestResetKeepsCachesWarm(t *testing.T) {
	dut := buildDuT(t, false, dpdk.RSS)
	gen, _ := trace.NewFixedSize(rand.New(rand.NewSource(4)), 64, 16)
	if _, err := RunPPS(dut, gen, 500, 1000); err != nil {
		t.Fatal(err)
	}
	dut.Reset()
	if len(dut.Latencies()) != 0 {
		t.Error("Reset left measurements")
	}
	res, err := RunPPS(dut, gen, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LatenciesNs) != 500 {
		t.Errorf("%d latencies after reset", len(res.LatenciesNs))
	}
}

func TestMinLoopback(t *testing.T) {
	if got := MinLoopbackNanos(0); got != 9_000 {
		t.Errorf("loopback(0) = %v", got)
	}
	if got := MinLoopbackNanos(100); got != 495_000 {
		t.Errorf("loopback(100) = %v, want 495 µs", got)
	}
	if MinLoopbackNanos(-5) != 9_000 {
		t.Error("negative rate mishandled")
	}
}

func TestLoopbackModelShape(t *testing.T) {
	// Monotone, convex-ish, anchored at the paper's 9 µs and 495 µs.
	prev := 0.0
	for r := 0.0; r <= 100; r += 5 {
		v := MinLoopbackNanos(r)
		if v < prev {
			t.Fatalf("loopback not monotone at %v Gbps", r)
		}
		prev = v
	}
	// Convexity: the rise from 50→100 dwarfs the rise from 0→50.
	low := MinLoopbackNanos(50) - MinLoopbackNanos(0)
	high := MinLoopbackNanos(100) - MinLoopbackNanos(50)
	if high < 5*low {
		t.Errorf("loopback not convex: 0→50 %+v, 50→100 %+v", low, high)
	}
}

func TestBurstSizeDoesNotChangeTotals(t *testing.T) {
	run := func(burst int) uint64 {
		m, err := cpusim.NewMachine(arch.HaswellE52667v3())
		if err != nil {
			t.Fatal(err)
		}
		port, err := dpdk.NewPort(m, dpdk.PortConfig{Queues: 8, RingSize: 256, PoolMbufs: 1024})
		if err != nil {
			t.Fatal(err)
		}
		chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
		if err != nil {
			t.Fatal(err)
		}
		dut, err := NewDuT(DuTConfig{Machine: m, Port: port, Chain: chain, Burst: burst})
		if err != nil {
			t.Fatal(err)
		}
		gen, _ := trace.NewFixedSize(rand.New(rand.NewSource(6)), 64, 64)
		res, err := RunPPS(dut, gen, 1000, 100000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered
	}
	if a, b := run(1), run(32); a != b {
		t.Errorf("delivered differs by burst: %d vs %d", a, b)
	}
}

func TestPPSCappedByNIC(t *testing.T) {
	dut := buildDuT(t, false, dpdk.RSS)
	gen, _ := trace.NewFixedSize(rand.New(rand.NewSource(7)), 64, 16)
	// Ask for an absurd packet rate; the ingress model clamps to the
	// NIC's pps ceiling, so the run spans at least count/NICCapPPS.
	res, err := RunPPS(dut, gen, 2000, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if minDur := 2000.0 / NICCapPPS * 1e9; res.DurationNs < minDur {
		t.Errorf("duration %.0f ns below the pps-capped minimum %.0f", res.DurationNs, minDur)
	}
}

func TestLatenciesAtLeastServiceTime(t *testing.T) {
	dut := buildDuT(t, false, dpdk.FlowDirector)
	gen, _ := trace.NewFixedSize(rand.New(rand.NewSource(8)), 64, 64)
	res, err := RunPPS(dut, gen, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Every latency must cover at least the fixed overhead cycles.
	minNs := float64(DefaultOverheadCycles) / 3.2e9 * 1e9
	for _, l := range res.LatenciesNs {
		if l < minNs {
			t.Fatalf("latency %.1f ns below the irreducible service %.1f ns", l, minNs)
		}
	}
}

func TestLatencyConservation(t *testing.T) {
	// Every accepted packet must produce exactly one latency sample and
	// one TX packet; the port's telemetry counts the TX packets.
	dut := buildDuT(t, false, dpdk.FlowDirector)
	c := telemetry.New(telemetry.Config{Shards: 8})
	dut.Port().SetTelemetry(c)
	gen, _ := trace.NewCampusMix(rand.New(rand.NewSource(5)), 128)
	res, err := RunRate(dut, gen, 3000, 60)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.LatenciesNs)) != res.Delivered {
		t.Errorf("%d latencies for %d delivered", len(res.LatenciesNs), res.Delivered)
	}
	if tx := c.Registry().Counter("dpdk_port_tx_packets_total", "").Value(); tx != res.Delivered {
		t.Errorf("tx %d ≠ delivered %d", tx, res.Delivered)
	}
	if res.Delivered+res.Dropped != 3000 {
		t.Errorf("delivered %d + dropped %d ≠ 3000", res.Delivered, res.Dropped)
	}
}
