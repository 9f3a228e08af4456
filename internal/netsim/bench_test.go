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
func benchDuT(b *testing.B) *DuT {
	b.Helper()
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		b.Fatal(err)
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: 8, RingSize: 1024, PoolMbufs: 4096, Steering: dpdk.RSS,
	})
	if err != nil {
		b.Fatal(err)
	}
	chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
	if err != nil {
		b.Fatal(err)
	}
	dut, err := NewDuT(DuTConfig{Machine: m, Port: port, Chain: chain})
	if err != nil {
		b.Fatal(err)
	}
	return dut
}

// BenchmarkRunRateForwarding drives the whole per-packet path — steering,
// DDIO DMA, ring queueing, chain processing, TX — for one batch of campus
// traffic per iteration, on the batch (RunBurst) path: the burst is filled
// once outside the timer (generation and pacing are array passes whose
// output never changes between iterations) and each op re-steers and
// replays it. Run with -benchmem: the per-packet constant factor of this
// loop bounds every figure's wall-clock, and the steady state must stay at
// 0 allocs/op — the CI bench-compare gate enforces both.
func BenchmarkRunRateForwarding(b *testing.B) {
	const packets = 2000
	dut := benchDuT(b)
	g, err := trace.NewCampusMix(rand.New(rand.NewSource(1)), 1024)
	if err != nil {
		b.Fatal(err)
	}
	burst := NewBurst(packets)
	if err := burst.FillRate(g, packets, 100); err != nil {
		b.Fatal(err)
	}
	// One warm-up run so one-time growth (latency storage, per-queue
	// FIFOs) happens outside the measurement.
	if _, err := RunBurst(dut, burst); err != nil {
		b.Fatal(err)
	}
	dut.Reset()
	dut.Port().ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBurst(dut, burst); err != nil {
			b.Fatal(err)
		}
		dut.Reset()
		dut.Port().ResetStats()
	}
	b.ReportMetric(float64(packets), "pkts/op")
}
