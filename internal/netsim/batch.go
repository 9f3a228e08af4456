// The run path: the LoadGen's packets move through the simulator as a
// struct-of-arrays Burst — parallel arrays of packets, arrival times,
// pre-resolved RX queues and per-packet verdicts — instead of one packet
// threading the whole stack at a time. Whole-array passes (generation/
// pacing, then RSS steering via dpdk.SteerBatch) run before the event
// loop; the per-arrival work that must stay interleaved with simulated
// time (shedding, AQM, DMA, service) runs through d.arrive, the same core
// the per-packet DuT.Arrive uses. A per-packet reference loop lives in the
// tests, and the equivalence property tests hold this path to its output
// bit for bit.

package netsim

import (
	"fmt"

	"sliceaware/internal/trace"
)

// Verdict records what became of one offered packet.
type Verdict uint8

const (
	// VerdictDelivered: the packet reached an RX ring and was (or will be)
	// serviced by the NF chain.
	VerdictDelivered Verdict = iota
	// VerdictDropped: refused at the NIC (wire loss, corruption, AQM,
	// mempool exhaustion, ring overflow).
	VerdictDropped
	// VerdictShed: refused by priority shedding before the NIC.
	VerdictShed
)

// Burst is a struct-of-arrays load segment: position i across all four
// arrays describes one offered packet. Fill with FillRate/FillPPS (or by
// hand for custom pacing), run with RunBurst. A Burst is reusable:
// refilling and rerunning allocates nothing once the arrays have grown to
// the working size.
type Burst struct {
	// Pkts holds the offered packets. The run stamps each packet's
	// Timestamp with its arrival instant, mutating this array.
	Pkts []trace.Packet
	// TimesNs holds each packet's wire-arrival instant (ns, ascending).
	TimesNs []float64
	// Queues holds each packet's pre-resolved RX queue (-1 = steer at
	// delivery). RunBurst overwrites it: filled by dpdk.SteerBatch when
	// the port's steering is pure (RSS), forced to -1 when it is stateful
	// (FlowDirector installs a rule on first sight, so steering must happen
	// at the packet's own arrival instant).
	Queues []int32
	// Verdicts records, after a run, what became of each packet.
	Verdicts []Verdict

	count int
	endNs float64 // time cursor after the last arrival's gap

	// latNs is the latency storage handed back and forth with the DuT when
	// recycle is set (NewBurst); see RunBurst.
	latNs   []float64
	recycle bool
}

// NewBurst returns a reusable Burst with capacity for n packets. Bursts
// from NewBurst additionally recycle the DuT's latency storage across
// runs: after a DuT.Reset, the next RunBurst with this Burst reuses the
// previous run's latency array — zero steady-state allocations, but the
// previous Result's LatenciesNs is overwritten. Callers that keep Results
// alive across runs should use RunRate/RunPPS (or a zero-value Burst),
// which allocate fresh latency storage per run.
func NewBurst(n int) *Burst {
	b := &Burst{recycle: true}
	if n > 0 {
		b.ensure(n)
		b.count = 0
	}
	return b
}

// ensure sizes every array for n packets, reusing capacity.
func (b *Burst) ensure(n int) {
	if cap(b.Pkts) < n {
		b.Pkts = make([]trace.Packet, n)
		b.TimesNs = make([]float64, n)
		b.Queues = make([]int32, n)
		b.Verdicts = make([]Verdict, n)
	}
	b.Pkts = b.Pkts[:n]
	b.TimesNs = b.TimesNs[:n]
	b.Queues = b.Queues[:n]
	b.Verdicts = b.Verdicts[:n]
	b.count = n
}

// FillRate loads the Burst with count packets from gen, paced by wire size
// at offeredGbps and capped by the NIC ingress model (RunRate's pacing).
func (b *Burst) FillRate(gen trace.Generator, count int, offeredGbps float64) error {
	if count <= 0 || offeredGbps <= 0 {
		return fmt.Errorf("netsim: need positive count and rate: %w", ErrInvalidRun)
	}
	rate := offeredGbps
	if rate > NICCapGbps {
		rate = NICCapGbps
	}
	minGapNs := 1e9 / NICCapPPS
	b.ensure(count)
	t := 0.0
	for i := 0; i < count; i++ {
		pkt := gen.Next()
		b.Pkts[i] = pkt
		b.TimesNs[i] = t
		wireNs := float64(pkt.Size*8) / rate // Gbps ⇒ bits/ns
		if wireNs < minGapNs {
			wireNs = minGapNs
		}
		t += wireNs
	}
	b.endNs = t
	return nil
}

// FillPPS loads the Burst with count packets from gen at a fixed packet
// rate (RunPPS's pacing).
func (b *Burst) FillPPS(gen trace.Generator, count int, pps float64) error {
	if count <= 0 || pps <= 0 {
		return fmt.Errorf("netsim: need positive count and rate: %w", ErrInvalidRun)
	}
	if pps > NICCapPPS {
		pps = NICCapPPS
	}
	gap := 1e9 / pps
	b.ensure(count)
	t := 0.0
	for i := 0; i < count; i++ {
		pkt := gen.Next()
		b.Pkts[i] = pkt
		b.TimesNs[i] = t
		t += gap
	}
	b.endNs = t
	return nil
}

// presteer resolves the whole Burst's RX queues in one array pass when the
// port's steering is pure, or marks every packet for inline steering.
func (d *DuT) presteer(b *Burst) {
	qs := b.Queues[:b.count]
	if d.port.CanPresteer() {
		d.port.SteerBatch(b.Pkts[:b.count], qs)
		return
	}
	for i := range qs {
		qs[i] = -1
	}
}

// arriveRange lands packets [lo, hi) through the shared arrival core.
func (d *DuT) arriveRange(b *Burst, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.Verdicts[i] = d.arrive(&b.Pkts[i], b.TimesNs[i], int(b.Queues[i]))
	}
}

// RunBurst offers a filled Burst to the DuT and returns the run's Result:
// the steady-state throughput window opens after the first quarter of
// arrivals and closes at the last arrival, and every counter diff is the
// shared beginRun/endRun bookkeeping.
func RunBurst(d *DuT, b *Burst) (Result, error) {
	if b.count <= 0 {
		return Result{}, fmt.Errorf("netsim: empty burst: %w", ErrInvalidRun)
	}
	d.presteer(b)
	if b.recycle && d.latencies == nil && b.latNs != nil {
		d.latencies = b.latNs[:0]
	}
	base := d.beginRun(b.count)
	quarter := b.count / 4
	d.arriveRange(b, 0, quarter+1)
	windowStartNs := b.TimesNs[quarter]
	windowStartTx := d.port.Stats().TxBytes
	d.arriveRange(b, quarter+1, b.count)
	t := b.endNs
	d.advanceTo(t)
	windowTx := d.port.Stats().TxBytes - windowStartTx
	res := d.endRun(base, b.count, t, windowStartNs, windowTx)
	if b.recycle {
		b.latNs = d.latencies
	}
	return res, nil
}

// scratchBurst returns the DuT-owned Burst backing RunRate/RunPPS.
func (d *DuT) scratchBurst() *Burst {
	if d.burstScratch == nil {
		d.burstScratch = &Burst{}
	}
	return d.burstScratch
}

// RunRate offers count packets from gen at offeredGbps, paced by wire size
// and capped by the NIC ingress model, and returns the collected result:
// FillRate into the DuT-owned scratch Burst, then RunBurst. The Result's
// LatenciesNs is fresh storage that later runs never overwrite.
func RunRate(d *DuT, gen trace.Generator, count int, offeredGbps float64) (Result, error) {
	b := d.scratchBurst()
	if err := b.FillRate(gen, count, offeredGbps); err != nil {
		return Result{}, err
	}
	return RunBurst(d, b)
}

// RunPPS offers count packets at a fixed packet rate (Fig 12's 1000 pps).
func RunPPS(d *DuT, gen trace.Generator, count int, pps float64) (Result, error) {
	b := d.scratchBurst()
	if err := b.FillPPS(gen, count, pps); err != nil {
		return Result{}, err
	}
	return RunBurst(d, b)
}
