package netsim

import (
	"fmt"

	"sliceaware/internal/trace"
)

// The per-packet reference run path: generation, pacing and DuT.arrive
// interleaved one packet at a time. The equivalence suite in
// batch_test.go holds RunRate/RunPPS to this output bit for bit, so it
// shares no code with the Burst pipeline beyond the DuT itself.

// runLoop is the shared offered-load loop behind runRateScalar and
// runPPSScalar: gap(pkt) returns the inter-arrival spacing in ns for the
// packet just offered. The steady-state throughput window skips the first
// quarter (warm-up) and stops at the last arrival (excluding the drain
// tail).
func runLoop(d *DuT, gen trace.Generator, count int, gap func(trace.Packet) float64) Result {
	base := d.beginRun(count)
	t := 0.0
	var windowStartNs float64
	var windowStartTx uint64
	for i := 0; i < count; i++ {
		pkt := gen.Next()
		d.arrive(&pkt, t, -1)
		if i == count/4 {
			windowStartNs = t
			windowStartTx = d.port.Stats().TxBytes
		}
		t += gap(pkt)
	}
	// Advance the cores to the end of the arrival window before closing
	// the throughput measurement, then drain the leftovers.
	d.advanceTo(t)
	windowTx := d.port.Stats().TxBytes - windowStartTx
	return d.endRun(base, count, t, windowStartNs, windowTx)
}

// runRateScalar is the reference for RunRate.
func runRateScalar(d *DuT, gen trace.Generator, count int, offeredGbps float64) (Result, error) {
	if count <= 0 || offeredGbps <= 0 {
		return Result{}, fmt.Errorf("netsim: need positive count and rate: %w", ErrInvalidRun)
	}
	rate := offeredGbps
	if rate > NICCapGbps {
		rate = NICCapGbps
	}
	minGapNs := 1e9 / NICCapPPS
	return runLoop(d, gen, count, func(pkt trace.Packet) float64 {
		wireNs := float64(pkt.Size*8) / rate // Gbps ⇒ bits/ns
		if wireNs < minGapNs {
			wireNs = minGapNs
		}
		return wireNs
	}), nil
}

// runPPSScalar is the reference for RunPPS.
func runPPSScalar(d *DuT, gen trace.Generator, count int, pps float64) (Result, error) {
	if count <= 0 || pps <= 0 {
		return Result{}, fmt.Errorf("netsim: need positive count and rate: %w", ErrInvalidRun)
	}
	if pps > NICCapPPS {
		pps = NICCapPPS
	}
	gap := 1e9 / pps
	return runLoop(d, gen, count, func(trace.Packet) float64 { return gap }), nil
}
