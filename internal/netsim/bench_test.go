package netsim

import (
	"math/rand"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/nfv"
	"sliceaware/internal/trace"
)

// benchDuT wires the standard benchmark testbed: 8 RSS queues of campus
// traffic on the Haswell DuT with a plain forwarder chain.
func benchDuT(tb testing.TB) *DuT {
	tb.Helper()
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		tb.Fatal(err)
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: 8, RingSize: 1024, PoolMbufs: 4096, Steering: dpdk.RSS,
	})
	if err != nil {
		tb.Fatal(err)
	}
	chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
	if err != nil {
		tb.Fatal(err)
	}
	dut, err := NewDuT(DuTConfig{Machine: m, Port: port, Chain: chain})
	if err != nil {
		tb.Fatal(err)
	}
	return dut
}

// forwardingPackets is the burst size of one forwarding op.
const forwardingPackets = 2000

// forwardingOp returns one steady-state op on the benchDuT testbed: replay
// a burst of campus traffic through RunBurst, then reset the DuT and the
// port counters. The burst is filled once (generation and pacing are array
// passes whose output never changes between ops) and run once before
// returning, so one-time growth (latency storage, per-queue FIFOs) happens
// outside any measurement.
func forwardingOp(tb testing.TB) func() {
	tb.Helper()
	dut := benchDuT(tb)
	g, err := trace.NewCampusMix(rand.New(rand.NewSource(1)), 1024)
	if err != nil {
		tb.Fatal(err)
	}
	burst := NewBurst(forwardingPackets)
	if err := burst.FillRate(g, forwardingPackets, 100); err != nil {
		tb.Fatal(err)
	}
	op := func() {
		if _, err := RunBurst(dut, burst); err != nil {
			tb.Fatal(err)
		}
		dut.Reset()
		dut.Port().ResetStats()
	}
	op()
	return op
}

// The per-packet path's steady state allocates nothing: every buffer a
// burst needs exists after the first one.
func TestForwardingSteadyStateAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, forwardingOp(t)); allocs != 0 {
		t.Errorf("RunBurst+Reset over %d packets: %v allocs/op, want 0", forwardingPackets, allocs)
	}
}

// BenchmarkRunRateForwarding drives the whole per-packet path — steering,
// DDIO DMA, ring queueing, chain processing, TX — for one batch of campus
// traffic per iteration, on the batch (RunBurst) path: each op re-steers
// and replays the same burst. The per-packet constant factor of this loop
// bounds every figure's wall-clock; its steady state must stay at 0
// allocs/op, which TestForwardingSteadyStateAllocatesNothing enforces.
func BenchmarkRunRateForwarding(b *testing.B) {
	op := forwardingOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(forwardingPackets, "pkts/op")
}
