// Package netsim is the testbed of §5 as a discrete-event simulation: a
// LoadGen paces timestamped packets at an offered rate into the DuT's NIC,
// the NIC steers/DMAs them (DDIO) and per-core rings queue them, cores run
// the NF chain to completion, and per-packet residency (queueing + service)
// is collected the way the paper's black-box method measures end-to-end
// latency minus loopback.
//
// Service times are not parameters: each packet is actually pushed through
// the dpdk/nfv code on the simulated machine and the consumed core cycles
// become its service time. That is what makes CacheDirector's placement
// visible here.
package netsim

import (
	"errors"
	"fmt"
	"math"

	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/faults"
	"sliceaware/internal/nfv"
	"sliceaware/internal/overload"
	"sliceaware/internal/telemetry"
	"sliceaware/internal/trace"
)

// ErrInvalidRun marks run parameters that cannot describe a workload
// (non-positive packet count or offered rate).
var ErrInvalidRun = errors.New("netsim: invalid run parameters")

// Calibration constants for the simulated testbed.
const (
	// DefaultOverheadCycles models the per-packet driver, PCIe and NIC
	// processing outside the NF chain for a plain DPDK application,
	// calibrated so the 8-core Haswell DuT saturates near the paper's
	// ≈76.6 Gbps ceiling on the campus mix (Table 3).
	DefaultOverheadCycles = 1680

	// MetronOverheadCycles is the per-packet overhead under a Metron-style
	// runtime: hardware classification (FlowDirector offload) and the
	// FastClick fast path cut the software driver work, which is how the
	// three-NF chain of §5.2 sustains nearly the same rate as bare
	// forwarding (75.94 vs 76.58 Gbps in Table 3).
	MetronOverheadCycles = 1460

	// DefaultBurst is the PMD RX burst size.
	DefaultBurst = 32

	// NICCapGbps is the ingress ceiling of the 100 Gbps Mellanox port for
	// the campus mix (Table 3 measures ≈76.6 Gbps; the NIC datasheet
	// limit for sub-512 B frames plus PCIe overheads — §5.1.2).
	NICCapGbps = 88.0

	// NICCapPPS bounds packet rate for small frames.
	NICCapPPS = 36e6
)

// MinLoopbackNanos models the loopback (LoadGen↔LoadGen) latency floor the
// paper reports per configuration: ≈9 µs at low rate rising to ≈495 µs at
// 100 Gbps. The rise is queueing inside the generator and its NIC, so it
// is convex in offered load — negligible at mid rates, steep near line
// rate.
func MinLoopbackNanos(offeredGbps float64) float64 {
	if offeredGbps < 0 {
		offeredGbps = 0
	}
	u := offeredGbps / 100
	return 9_000 + 486_000*u*u*u*u
}

// DuTConfig wires a device under test.
type DuTConfig struct {
	Machine *cpusim.Machine
	Port    *dpdk.Port
	Chain   *nfv.Chain
	// OverheadCycles overrides DefaultOverheadCycles when non-zero.
	OverheadCycles uint64
	// Burst overrides DefaultBurst when non-zero.
	Burst int
	// Faults arms the whole pipeline (NIC, rings, mempools, cores) against
	// a fault plan; nil runs the ideal testbed.
	Faults *faults.Injector
	// Telemetry, when non-nil, instruments the whole pipeline: port
	// counters, per-packet flight spans, latency histograms, and the
	// per-slice LLC heat timeline bound to the machine's LLC. Telemetry
	// observes the run but never perturbs it — no cycles are charged and
	// no randomness is drawn.
	Telemetry *telemetry.Collector
	// Overload, when non-nil, arms the overload-control layer; nil runs
	// the pre-overload pipeline bit-for-bit (blind tail-drop, no shedding,
	// no pressure feedback).
	Overload *OverloadConfig
}

// OverloadConfig arms the overload-control layer on a DuT. Every field is
// independently optional.
type OverloadConfig struct {
	// AQM, when non-nil, installs an active-queue-management discipline on
	// each of the port's RX rings (called once per queue; see
	// dpdk.Port.SetAQM).
	AQM func(queue int) overload.AQM
	// Shed, when non-nil, enables priority-aware load shedding ahead of
	// the NIC with the given configuration (zero fields take the
	// overload package defaults).
	Shed *overload.ShedConfig
	// Pressure, when non-nil, receives the folded backpressure signal
	// ([0,1]) observed at each arrival — the feed for the CacheDirector's
	// degradation ladder. Wired externally so netsim stays ignorant of who
	// consumes the signal.
	Pressure func(nowNs, pressure float64)
}

// DuT is the device under test: one port polled by one core per queue.
type DuT struct {
	machine  *cpusim.Machine
	port     *dpdk.Port
	chain    *nfv.Chain
	overhead uint64
	burst    int
	faults   *faults.Injector

	freq float64 // Hz

	coreFree []float64   // ns at which each queue's core goes idle
	arrivals [][]float64 // per-queue FIFO of arrival times, parallel to the RX ring
	// arrHead/recHead are the consumed prefix of each queue's FIFO. Popping
	// by advancing a head index (and rewinding to a zero-length slice once
	// the queue drains) keeps the backing arrays alive across the whole run,
	// where re-slicing [1:] leaked the prefix capacity and forced append to
	// reallocate continually on the per-packet path.
	arrHead []int
	recHead []int

	rxScratch []*dpdk.Mbuf // PMD burst buffer, reused across RxBurstInto calls

	// nextDue is a lower bound on the earliest instant any queued packet's
	// service could begin (+Inf when all rings are empty). advanceTo skips
	// the per-queue scan entirely when the target time hasn't reached it,
	// which is most arrivals: at high offered rates many packets land
	// between consecutive service completions.
	nextDue float64

	// burstScratch backs RunRate/RunPPS so repeated runs reuse one Burst's
	// arrays instead of allocating per run.
	burstScratch *Burst

	latencies []float64 // ns residency per processed packet

	// Overload-control state (all nil/zero when disarmed).
	shed         *overload.Shedder
	pressureCB   func(nowNs, pressure float64)
	fullSojourn  float64 // ns regarded as full pressure when folding
	shedTotal    uint64
	shedByClass  []uint64
	shedBaseline []uint64 // scratch: per-run starting counts (runLoop)

	tele *telemetry.Collector
	// recs mirrors arrivals: the flight record opened for each queued
	// packet (nil entries when telemetry is off).
	recs     [][]*telemetry.PacketRecord
	nfSpans  []nfv.CycleSpan // scratch for ProcessTraced
	histResd *telemetry.Histogram
	histSvc  *telemetry.Histogram
	ctrDone  *telemetry.Counter
	ctrShed  []*telemetry.Counter // per-class shed counters
}

// NewDuT validates and assembles the device under test.
func NewDuT(cfg DuTConfig) (*DuT, error) {
	if cfg.Machine == nil || cfg.Port == nil || cfg.Chain == nil {
		return nil, fmt.Errorf("netsim: machine, port and chain are all required")
	}
	if cfg.Port.Queues() > cfg.Machine.Cores() {
		return nil, fmt.Errorf("netsim: %d queues exceed %d cores", cfg.Port.Queues(), cfg.Machine.Cores())
	}
	d := &DuT{
		machine:  cfg.Machine,
		port:     cfg.Port,
		chain:    cfg.Chain,
		overhead: cfg.OverheadCycles,
		burst:    cfg.Burst,
		faults:   cfg.Faults,
		freq:     cfg.Machine.Profile.FrequencyHz,
	}
	if cfg.Faults != nil {
		cfg.Port.SetFaultInjector(cfg.Faults)
	}
	if ov := cfg.Overload; ov != nil {
		if ov.AQM != nil {
			cfg.Port.SetAQM(ov.AQM)
		}
		d.pressureCB = ov.Pressure
		d.fullSojourn = 100_000 // default fold horizon, ns
		if ov.Shed != nil {
			shed, err := overload.NewShedder(*ov.Shed)
			if err != nil {
				return nil, fmt.Errorf("netsim: %w", err)
			}
			d.shed = shed
			d.shedByClass = make([]uint64, shed.Classes())
			d.shedBaseline = make([]uint64, shed.Classes())
		}
	}
	if d.overhead == 0 {
		d.overhead = DefaultOverheadCycles
	}
	if d.burst <= 0 {
		d.burst = DefaultBurst
	}
	d.nextDue = math.Inf(1)
	d.coreFree = make([]float64, cfg.Port.Queues())
	d.arrivals = make([][]float64, cfg.Port.Queues())
	d.recs = make([][]*telemetry.PacketRecord, cfg.Port.Queues())
	d.arrHead = make([]int, cfg.Port.Queues())
	d.recHead = make([]int, cfg.Port.Queues())
	d.rxScratch = make([]*dpdk.Mbuf, 0, d.burst)
	if cfg.Telemetry != nil {
		d.tele = cfg.Telemetry
		d.tele.BindLLC(cfg.Machine.LLC)
		cfg.Port.SetTelemetry(d.tele)
		reg := d.tele.Registry()
		d.histResd = reg.Histogram("netsim_residency_ns",
			"Per-packet DuT residency (queueing + service), ns", telemetry.DefLatencyBucketsNs())
		d.histSvc = reg.Histogram("netsim_service_ns",
			"Per-packet service time (chain + driver overhead), ns", telemetry.DefLatencyBucketsNs())
		d.ctrDone = reg.Counter("netsim_packets_processed_total",
			"Packets run to completion by the NF chain")
		if d.shed != nil {
			d.ctrShed = make([]*telemetry.Counter, d.shed.Classes())
			for c := range d.ctrShed {
				d.ctrShed[c] = reg.CounterL("netsim_shed_total",
					"Packets refused by priority shedding, by class",
					fmt.Sprintf(`class="%d"`, c))
			}
		}
	}
	return d, nil
}

// arrive lands a packet at simulated time t (ns). Cores first advance to t
// (processing whatever queued work starts before then), mirroring how the
// real DuT overlaps reception with processing. It is RunBurst's per-packet
// step. preQ,
// when >= 0, is the RX queue already resolved by dpdk.SteerBatch (pure RSS
// steering only); -1 makes the port steer at delivery. The packet is
// mutated in place (timestamped), which lets the burst path stamp its
// backing array without a copy.
func (d *DuT) arrive(pkt *trace.Packet, t float64, preQ int) Verdict {
	d.advanceTo(t)
	// The LoadGen stamps the wire-arrival time here; generators leave
	// Timestamp zero (see trace.Packet).
	pkt.Timestamp = t
	d.tele.SetNow(t)
	d.tele.Timeline().Sample(t)
	if d.shed != nil || d.pressureCB != nil {
		// Backpressure is read on the queue this packet would land on
		// (SteerQueue is sticky, so the later Deliver resolves identically).
		q := preQ
		if q < 0 {
			q = d.port.SteerQueue(*pkt)
		}
		occ := float64(d.port.RxQueueLen(q)) / float64(d.port.RxRingCap(q))
		sojourn := 0.0
		if len(d.arrivals[q]) > d.arrHead[q] {
			sojourn = t - d.arrivals[q][d.arrHead[q]]
		}
		var pressure float64
		if d.shed != nil {
			pressure = d.shed.Pressure(occ, sojourn)
		} else {
			pressure = occ
			if sj := sojourn / d.fullSojourn; sj > pressure {
				pressure = sj
			}
			if pressure > 1 {
				pressure = 1
			}
		}
		if d.pressureCB != nil {
			d.pressureCB(t, pressure)
		}
		if d.shed != nil && !d.shed.Admit(int(pkt.Priority), pressure) {
			class := int(pkt.Priority)
			if class >= len(d.shedByClass) {
				class = len(d.shedByClass) - 1
			}
			d.shedTotal++
			d.shedByClass[class]++
			d.tele.Flight().Drop(pkt.FlowID, pkt.Size, q, t, dropCause(overload.ErrShed))
			if d.ctrShed != nil {
				d.ctrShed[class].Inc(q)
			}
			return VerdictShed
		}
	}
	var q int
	var ok bool
	if preQ >= 0 {
		q, ok = d.port.DeliverPresteered(*pkt, preQ)
	} else {
		q, ok = d.port.Deliver(*pkt)
	}
	if !ok {
		d.tele.Flight().Drop(pkt.FlowID, pkt.Size, q, t, dropCause(d.port.LastDropCause()))
		return VerdictDropped
	}
	d.arrivals[q] = append(d.arrivals[q], t)
	if f := d.tele.Flight(); f != nil {
		d.recs[q] = append(d.recs[q], f.Arrive(pkt.FlowID, pkt.Size, q, t))
	}
	// The enqueued packet can only lower the earliest service start if its
	// queue was idle; min-updating keeps nextDue a valid lower bound.
	if due := max(d.coreFree[q], t); due < d.nextDue {
		d.nextDue = due
	}
	return VerdictDelivered
}

// dropCause maps the port's drop error to the flight recorder's short
// cause label, matching the port's own per-cause counters.
func dropCause(err error) string {
	switch {
	case err == nil:
		return "unknown"
	case errors.Is(err, overload.ErrShed):
		return "shed"
	case errors.Is(err, overload.ErrAQM):
		return "aqm"
	case errors.Is(err, dpdk.ErrRingFull):
		return "ring"
	case errors.Is(err, dpdk.ErrPoolExhausted):
		return "pool"
	case errors.Is(err, dpdk.ErrFrameCorrupt):
		return "corrupt"
	case errors.Is(err, dpdk.ErrFrameDropped):
		return "wire"
	default:
		return "unknown"
	}
}

// advanceTo processes, on every queue, all packets whose service would
// begin before time t. The nextDue bound short-circuits the common case
// where no queued packet is due yet.
func (d *DuT) advanceTo(t float64) {
	if t <= d.nextDue {
		return
	}
	for q := range d.coreFree {
		d.advanceQueue(q, t)
	}
	d.refreshNextDue()
}

// refreshNextDue recomputes the exact earliest service start across all
// queues (+Inf when every ring is empty).
func (d *DuT) refreshNextDue() {
	nd := math.Inf(1)
	for q := range d.coreFree {
		if d.port.RxQueueLen(q) == 0 {
			continue
		}
		s := d.coreFree[q]
		if head := d.arrivals[q][d.arrHead[q]]; head > s {
			s = head
		}
		if s < nd {
			nd = s
		}
	}
	d.nextDue = nd
}

func (d *DuT) advanceQueue(q int, t float64) {
	for d.port.RxQueueLen(q) > 0 {
		start := d.coreFree[q]
		if head := d.arrivals[q][d.arrHead[q]]; head > start {
			start = head // core idles until the packet is there
		}
		if start >= t {
			return
		}
		// The PMD dequeues a burst and runs it to completion.
		n := d.burst
		if avail := d.port.RxQueueLen(q); n > avail {
			n = avail
		}
		d.rxScratch = d.port.RxBurstInto(q, n, d.rxScratch[:0])
		core := d.machine.Core(q)
		for _, mb := range d.rxScratch {
			arr := d.arrivals[q][d.arrHead[q]]
			d.arrHead[q]++
			// The packet's flight record (none when telemetry is off).
			var rec *telemetry.PacketRecord
			if len(d.recs[q]) > d.recHead[q] {
				rec = d.recs[q][d.recHead[q]]
				d.recHead[q]++
			}

			before := core.Cycles()
			// Driver touches the descriptor and mbuf metadata...
			core.Read(mb.BaseVA())
			core.Read(mb.BaseVA() + 64)
			// ...then the chain runs to completion...
			if rec != nil && rec.Sampled {
				d.nfSpans = d.nfSpans[:0]
				d.chain.ProcessTraced(core, mb, &d.nfSpans)
			} else {
				d.chain.Process(core, mb)
			}
			// ...plus the fixed per-packet driver/PCIe/NIC overhead.
			core.AddCycles(d.overhead)
			scale := d.faults.ServiceScale(q)
			serviceNs := float64(core.Cycles()-before) / d.freq * 1e9
			// Co-runner interference / frequency throttling stretches the
			// wall-clock service time without changing cache behaviour.
			serviceNs *= scale

			begin := d.coreFree[q]
			if arr > begin {
				begin = arr
			}
			d.coreFree[q] = begin + serviceNs
			d.latencies = append(d.latencies, d.coreFree[q]-arr)
			if d.tele != nil {
				if rec != nil {
					d.finishRecord(rec, q, before, begin, scale)
				}
				d.histResd.Observe(q, d.coreFree[q]-arr)
				d.histSvc.Observe(q, serviceNs)
				d.ctrDone.Inc(q)
			}
		}
		// One transmit per PMD burst: TxBurst draws no fault RNG and returns
		// the mbufs to their pools in slice order, and no mempool Get
		// intervenes before the next delivery, so pool and RNG state match
		// per-packet transmits exactly.
		d.port.TxBurst(q, d.rxScratch)
	}
	// Queue drained: rewind the FIFOs so their capacity is reused by the
	// next arrivals instead of growing behind an ever-advancing head.
	d.arrivals[q] = d.arrivals[q][:0]
	d.arrHead[q] = 0
	d.recs[q] = d.recs[q][:0]
	d.recHead[q] = 0
}

// finishRecord closes a packet's flight record: cycle-denominated NF
// spans are rebased onto the simulated clock (service began at beginNs,
// one cycle is 1/freq seconds, stretched by the injected scale).
func (d *DuT) finishRecord(rec *telemetry.PacketRecord, q int, beforeCycles uint64, beginNs, scale float64) {
	perNs := 1e9 / d.freq * scale
	var spans []telemetry.Span
	if rec.Sampled && len(d.nfSpans) > 0 {
		spans = make([]telemetry.Span, len(d.nfSpans))
		for i, cs := range d.nfSpans {
			spans[i] = telemetry.Span{
				Stage:   telemetry.StageNF,
				Name:    "nf:" + cs.Name,
				StartNs: beginNs + float64(cs.Start-beforeCycles)*perNs,
				EndNs:   beginNs + float64(cs.End-beforeCycles)*perNs,
			}
		}
	}
	d.tele.Flight().Complete(rec, beginNs, d.coreFree[q], scale, spans)
}

// Drain processes every queued packet and returns the time the last one
// completed.
func (d *DuT) Drain() float64 {
	d.advanceTo(1e300)
	end := 0.0
	for _, f := range d.coreFree {
		if f > end {
			end = f
		}
	}
	d.tele.SetNow(end)
	d.tele.Timeline().Sample(end)
	return end
}

// Latencies returns per-packet DuT residency in ns (queueing + service),
// i.e. end-to-end latency without the loopback component.
func (d *DuT) Latencies() []float64 { return d.latencies }

// Port exposes the DuT's port (for drop/throughput counters).
func (d *DuT) Port() *dpdk.Port { return d.port }

// Shedder exposes the DuT's priority shedder (nil when overload control
// is disarmed or shedding is off).
func (d *DuT) Shedder() *overload.Shedder { return d.shed }

// Reset clears collected latencies and timing but keeps caches and tables
// warm (back-to-back runs, as in the paper's 50-run medians).
func (d *DuT) Reset() {
	d.latencies = nil
	for q := range d.coreFree {
		d.coreFree[q] = 0
		d.arrivals[q] = d.arrivals[q][:0]
		d.arrHead[q] = 0
		d.recs[q] = d.recs[q][:0]
		d.recHead[q] = 0
	}
	// Batch scratch state: the next-due bound anchors to the simulated
	// clock (which restarts at zero), so a stale value from the previous
	// run would make advanceTo skip — or refuse to skip — work it
	// shouldn't. The scratch burst's fill is likewise invalidated so a
	// rerun must refill rather than replay stale verdicts.
	d.nextDue = math.Inf(1)
	if d.burstScratch != nil {
		d.burstScratch.count = 0
	}
	// The simulated clock restarts at zero: clear the AQM disciplines'
	// clock-anchored episode state (cumulative shed/ladder/breaker state
	// deliberately survives — overload control remembers recent history
	// across back-to-back runs, like the caches do).
	d.port.ResetAQM()
}

// Result summarizes one LoadGen run. Fault-injected runs never abort
// mid-run: every loss is accounted here (Dropped plus the DropBreakdown
// and FaultCounts detail), so a degraded run still yields a complete,
// comparable Result.
type Result struct {
	LatenciesNs  []float64
	AchievedGbps float64
	OfferedPkts  int
	Delivered    uint64
	Dropped      uint64
	DurationNs   float64

	// Shed counts packets refused by priority shedding before the NIC
	// (not part of Dropped, which books NIC-level losses only):
	// Delivered + Dropped + Shed == OfferedPkts. ShedByClass breaks it
	// down per priority class (nil when shedding is off).
	Shed        uint64
	ShedByClass []uint64

	// DropBreakdown carries the port's per-cause RX loss counters for
	// this run (ring, pool, wire, corruption, AQM).
	DropBreakdown dpdk.PortStats
	// FaultCounts snapshots the injector's triggered-fault counters at the
	// end of the run (zero when the DuT runs without an injector).
	FaultCounts faults.Counts
}

// runBaseline snapshots the cumulative counters a run's Result is diffed
// against (counters survive across back-to-back runs; Results don't).
type runBaseline struct {
	port dpdk.PortStats
	shed uint64
}

// beginRun snapshots counters and reserves latency storage for count
// packets so the per-packet append in advanceQueue never regrows mid-run.
func (d *DuT) beginRun(count int) runBaseline {
	base := runBaseline{port: d.port.Stats(), shed: d.shedTotal}
	copy(d.shedBaseline, d.shedByClass)
	if free := cap(d.latencies) - len(d.latencies); free < count {
		grown := make([]float64, len(d.latencies), len(d.latencies)+count)
		copy(grown, d.latencies)
		d.latencies = grown
	}
	return base
}

// endRun drains the DuT and assembles the Result for a run whose last
// arrival was at t, diffing cumulative counters against the beginRun
// snapshot.
func (d *DuT) endRun(base runBaseline, count int, t, windowStartNs float64, windowTx uint64) Result {
	end := d.Drain()
	if end < t {
		end = t
	}
	st := d.port.Stats()
	res := Result{
		LatenciesNs: d.Latencies(),
		OfferedPkts: count,
		Delivered:   st.RxPackets - base.port.RxPackets,
		Dropped:     st.RxDropped - base.port.RxDropped,
		DurationNs:  end,
		Shed:        d.shedTotal - base.shed,
		DropBreakdown: dpdk.PortStats{
			RxDropRing:    st.RxDropRing - base.port.RxDropRing,
			RxDropPool:    st.RxDropPool - base.port.RxDropPool,
			RxDropWire:    st.RxDropWire - base.port.RxDropWire,
			RxDropCorrupt: st.RxDropCorrupt - base.port.RxDropCorrupt,
			RxDropAQM:     st.RxDropAQM - base.port.RxDropAQM,
		},
		FaultCounts: d.faults.Counts(),
	}
	if d.shed != nil {
		res.ShedByClass = make([]uint64, len(d.shedByClass))
		for c := range res.ShedByClass {
			res.ShedByClass[c] = d.shedByClass[c] - d.shedBaseline[c]
		}
	}
	if window := t - windowStartNs; window > 0 {
		res.AchievedGbps = float64(windowTx) * 8 / window
	}
	return res
}
