package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cachesim"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/parallel"
	"sliceaware/internal/stats"
	"sliceaware/internal/trace"
)

// The nfv-chain workload: Figure 14's device under test, in process,
// through public constructors only. One operation is one simulated packet;
// the "call" whose latency is reported is one netsim.RunRate of
// pktsPerRun packets.

const (
	nfvQueues      = 8
	nfvFlows       = 4096
	nfvOfferedGbps = 100
	replayBurst    = 32
	// spanBursts caps the replay spans kept per run: every burst is timed
	// into the stage totals, the first few are also kept as spans.
	spanBursts = 128
)

// nfvRig is the assembled device: Haswell, 8 queues, Router-NAPT-LB with
// the routing table offloaded to the NIC, FlowDirector steering and
// CacheDirector attached (what experiments.Figure14 builds for its
// CacheDirector side).
type nfvRig struct {
	machine  *cpusim.Machine
	port     *dpdk.Port
	director *cachedirector.Director
	chain    *nfv.Chain
	dut      *netsim.DuT
}

// machineAndPort builds the simulated socket and its NIC port.
func machineAndPort() (*cpusim.Machine, *dpdk.Port, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, nil, err
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: nfvQueues, RingSize: 1024, PoolMbufs: 4096,
		HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: dpdk.FlowDirector,
	})
	return m, port, err
}

func buildRig() (*nfvRig, error) {
	m, port, err := machineAndPort()
	if err != nil {
		return nil, err
	}
	director, err := cachedirector.New(m, cachedirector.Config{})
	if err != nil {
		return nil, err
	}
	if err := director.Attach(port); err != nil {
		return nil, err
	}
	router, err := nfv.NewRouter(m.Space)
	if err != nil {
		return nil, err
	}
	if err := router.PopulateDefaultAndRandom(3120); err != nil {
		return nil, err
	}
	router.HWOffload = true
	napt, err := nfv.NewNAPT(m.Space, 1<<15, 0xc0a80001)
	if err != nil {
		return nil, err
	}
	lb, err := nfv.NewLoadBalancer(m.Space, 1<<15, 16)
	if err != nil {
		return nil, err
	}
	chain, err := nfv.NewChain("Router-NAPT-LB", router, napt, lb)
	if err != nil {
		return nil, err
	}
	dut, err := netsim.NewDuT(netsim.DuTConfig{Machine: m, Port: port, Chain: chain, OverheadCycles: netsim.MetronOverheadCycles})
	if err != nil {
		return nil, err
	}
	return &nfvRig{machine: m, port: port, director: director, chain: chain, dut: dut}, nil
}

// campusGen is the packet source of run number run (-1 is the warm-up): a
// campus mix over nfvFlows flows whose randomness comes from the workload
// seed and the run number only, so every repeat offers the same packets.
func campusGen(seed int64, run int) (trace.Generator, error) {
	return trace.NewCampusMix(rand.New(rand.NewSource(parallel.Seed(seed, "bench/nfv-chain", run))), nfvFlows)
}

// rateRun offers one run through netsim.RunRate and rearms the DuT the way
// the experiment drivers do between back-to-back runs.
func (r *nfvRig) rateRun(seed int64, run, pkts int) (netsim.Result, time.Duration, float64, error) {
	gen, err := campusGen(seed, run)
	if err != nil {
		return netsim.Result{}, 0, 0, err
	}
	cpu0, t0 := selfCPU(), time.Now()
	out, err := netsim.RunRate(r.dut, gen, pkts, nfvOfferedGbps)
	dt, cpu := time.Since(t0), selfCPU()-cpu0
	r.dut.Reset()
	r.dut.Port().ResetStats()
	return out, dt, cpu, err
}

// runDigest condenses one run's simulated result — every packet latency,
// the achieved rate and the port's accounting — so runs can be compared
// bit for bit without keeping them.
func runDigest(out netsim.Result) [sha256.Size]byte {
	buf := make([]byte, 0, 8*len(out.LatenciesNs)+128)
	for _, l := range out.LatenciesNs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(out.AchievedGbps))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(out.DurationNs))
	d := out.DropBreakdown
	for _, v := range []uint64{out.Delivered, out.Dropped, out.Shed, d.RxDropRing, d.RxDropPool, d.RxDropWire, d.RxDropCorrupt, d.RxDropAQM} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return sha256.Sum256(buf)
}

// accountingHolds is the conservation check on one run.
func accountingHolds(out netsim.Result) bool {
	return out.Delivered+out.Dropped+out.Shed == uint64(out.OfferedPkts)
}

// simOutputs pools the simulated results of a rig's leading runs.
type simOutputs struct {
	latNs   []float64
	gbps    []float64
	digests [][sha256.Size]byte
}

func (s *simOutputs) p99Us() float64 { return stats.Percentile(s.latNs, 99) / 1000 }

func (s *simOutputs) sha() string {
	all := sha256.New()
	for _, d := range s.digests {
		all.Write(d[:])
	}
	return hex.EncodeToString(all.Sum(nil))
}

func measureNFV(h *harness, res *WorkloadResult) error {
	pkts := h.size.pktsPerRun
	budget := time.Duration(h.size.seconds / float64(h.size.repeats) * float64(time.Second))
	var setup []float64
	var repeats [][]slice
	var first simOutputs
	for rep := 0; rep < h.size.repeats; rep++ {
		// Collect the previous repeat's DuT first, or peak RSS would say
		// whether the collector happened to run between two DuTs.
		runtime.GC()
		t0 := time.Now()
		rig, err := buildRig()
		if err != nil {
			return err
		}
		if _, _, _, err := rig.rateRun(h.seed, -1, pkts); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())

		var calls []slice
		var busy time.Duration
		// At least simRuns runs, so the simulated outputs always cover the
		// same runs however fast the host is; then until the time is used.
		for run := 0; run < h.size.simRuns || busy < budget; run++ {
			out, dt, cpu, err := rig.rateRun(h.seed, run, pkts)
			if err != nil {
				return fmt.Errorf("repeat %d run %d: %w", rep, run, err)
			}
			res.Attempted++
			busy += dt
			us := float64(dt.Nanoseconds()) / 1e3
			calls = append(calls, slice{ops: float64(pkts), wallS: dt.Seconds(), cpuS: cpu, p50Us: us, tailUs: us})
			if !accountingHolds(out) {
				res.Failed++
				res.problem("repeat %d run %d: delivered %d + dropped %d + shed %d != offered %d",
					rep, run, out.Delivered, out.Dropped, out.Shed, out.OfferedPkts)
			}
			d := runDigest(out)
			switch {
			case rep == 0:
				first.digests = append(first.digests, d)
				if run < h.size.simRuns {
					first.latNs = append(first.latNs, out.LatenciesNs...)
					first.gbps = append(first.gbps, out.AchievedGbps)
				}
			case run < len(first.digests) && d != first.digests[run]:
				res.Failed++
				res.problem("repeat %d run %d: simulated result differs from repeat 0", rep, run)
			}
		}
		repeats = append(repeats, calls)
		h.logf("nfv-chain: repeat %d: %d runs of %d packets in %.2f s", rep, len(calls), pkts, busy.Seconds())
	}
	first.digests = first.digests[:h.size.simRuns]
	res.OutputSHA256 = first.sha()

	rss, err := procPeakRSSMiB(os.Getpid())
	if err != nil {
		return err
	}
	// One call is one slice, so the caller's median and tail latency are
	// both the quartile-best call.
	res.EndToEnd = endToEnd(repeats, setup)
	res.note("peak_rss_mb", rss)
	res.note("slices_per_repeat", float64(len(repeats[0])))
	res.note("sim_p99_us", first.p99Us())
	res.note("sim_gbps", median(first.gbps))
	return nil
}

// stageTotals accumulates the replay's host time per pipeline stage.
type stageTotals struct {
	gen, deliver, rx, chain, tx time.Duration
}

func (s stageTotals) sum() time.Duration { return s.gen + s.deliver + s.rx + s.chain + s.tx }

// replay pushes the same packet sequence RunRate would offer through the
// pipeline one stage at a time, in bursts of replayBurst, timing each call
// from outside the layer it enters. It has no clock: every burst is
// delivered and then drained, so nothing queues and nothing is dropped. It
// returns the stage totals and the stream of header-line addresses and
// packets the run touched, for the kernels.
func replay(h *harness, parent int, rig *nfvRig, runs, pkts int) (stageTotals, []uint64, []trace.Packet, error) {
	var tot stageTotals
	var pas []uint64
	var seen []trace.Packet
	burst := netsim.NewBurst(replayBurst)
	var ms []*dpdk.Mbuf
	var perQ [nfvQueues]int
	for run := -1; run < runs; run++ {
		gen, err := campusGen(h.seed, run)
		if err != nil {
			return tot, nil, nil, err
		}
		timed := run >= 0 // run -1 warms the caches, as it does for RunRate
		runSpan := 0
		if timed {
			runSpan = h.spans.open(parent, "replay.run", "nfv-chain", run)
		}
		for off, b := 0, 0; off < pkts; off, b = off+replayBurst, b+1 {
			n := min(replayBurst, pkts-off)
			keep := timed && b < spanBursts

			t0 := time.Now()
			err := burst.FillRate(gen, n, nfvOfferedGbps)
			t1 := time.Now()
			if err != nil {
				return tot, nil, nil, err
			}
			for i := 0; i < n; i++ {
				if q, ok := rig.port.Deliver(burst.Pkts[i]); ok {
					perQ[q]++
				}
			}
			t2 := time.Now()
			if timed {
				tot.gen += t1.Sub(t0)
				tot.deliver += t2.Sub(t1)
			}
			if keep {
				h.spans.add(runSpan, "trace.gen", "nfv-chain", run, t0, t1)
				h.spans.add(runSpan, "dpdk.deliver", "nfv-chain", run, t1, t2)
			}
			for q := range perQ {
				if perQ[q] == 0 {
					continue
				}
				core := rig.machine.Core(q)
				ta := time.Now()
				ms = rig.port.RxBurstInto(q, perQ[q], ms[:0])
				tb := time.Now()
				// What netsim's service loop does per packet: the driver
				// touches descriptor and metadata, the chain runs to
				// completion, the fixed overhead is charged.
				for _, mb := range ms {
					core.Read(mb.BaseVA())
					core.Read(mb.BaseVA() + 64)
				}
				rig.chain.ProcessBatch(core, ms)
				core.AddCycles(netsim.MetronOverheadCycles * uint64(len(ms)))
				tc := time.Now()
				if timed && len(pas) < h.size.kernelOps {
					for _, mb := range ms {
						pas = append(pas, mb.DataPhys())
						seen = append(seen, mb.Pkt)
					}
				}
				td := time.Now()
				rig.port.TxBurst(q, ms)
				te := time.Now()
				if timed {
					tot.rx += tb.Sub(ta)
					tot.chain += tc.Sub(tb)
					tot.tx += te.Sub(td)
				}
				if keep {
					h.spans.add(runSpan, "dpdk.rx", "nfv-chain", run, ta, tb)
					h.spans.add(runSpan, "nfv.chain", "nfv-chain", run, tb, tc)
					h.spans.add(runSpan, "dpdk.tx", "nfv-chain", run, td, te)
				}
				perQ[q] = 0
			}
		}
		h.spans.close(runSpan)
	}
	return tot, pas, seen, nil
}

// timePasses times pass, which performs ops operations, passes times and
// returns the median nanoseconds per operation.
func timePasses(passes, ops int, pass func()) float64 {
	per := make([]float64, passes)
	for i := range per {
		t0 := time.Now()
		pass()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(per)
}

// kernelSink keeps the kernels' results alive so the compiler cannot drop
// the calls being timed.
var kernelSink uint64

// nfvKernels times the single-layer operations under the pipeline on the
// addresses and packets the replay touched, each on scratch state of its
// own so the kernels do not disturb one another.
func nfvKernels(h *harness, pas []uint64, seen []trace.Packet, out map[string]float64) error {
	m, port, err := machineAndPort()
	if err != nil {
		return err
	}
	n, passes := len(pas), h.size.kernelPasses
	var sink uint64

	out["dpdk.steer.ns_per_op"] = timePasses(passes, n, func() {
		for i := range seen {
			sink += uint64(port.SteerQueue(seen[i]))
		}
	})
	slices := make([]int, n)
	out["chash.slice_of.ns_per_op"] = timePasses(passes, n, func() { m.LLC.SliceOfBatch(pas, slices) })

	// One cache with the geometry of an LLC slice, fed line addresses.
	geom := m.LLC.SliceCache(0)
	cache, err := cachesim.New("kernel", geom.Sets(), geom.Ways())
	if err != nil {
		return err
	}
	all := cachesim.MaskOfWays(geom.Ways())
	out["cachesim.insert.ns_per_op"] = timePasses(passes, n, func() {
		for _, pa := range pas {
			if cache.Insert(pa>>6, false, all).Evicted {
				sink++
			}
		}
	})
	out["cachesim.lookup.ns_per_op"] = timePasses(passes, n, func() {
		for _, pa := range pas {
			if cache.Lookup(pa>>6, false) {
				sink++
			}
		}
	})
	out["llc.dma_insert.ns_per_op"] = timePasses(passes, n, func() {
		for _, pa := range pas {
			_, s := m.LLC.DMAInsert(pa)
			sink += uint64(s)
		}
	})
	out["llc.lookup.ns_per_op"] = timePasses(passes, n, func() {
		for _, pa := range pas {
			_, s := m.LLC.LookupCore(0, pa, false)
			sink += uint64(s)
		}
	})
	core := m.Core(0)
	out["cpusim.read.ns_per_op"] = timePasses(passes, n, func() {
		for _, pa := range pas {
			sink += core.ReadPhys(pa)
		}
	})
	kernelSink += sink
	return nil
}

// simCounts reads the simulated machine's public counters after the traced
// runs. They are cumulative since the rig was built, warm-up included.
func simCounts(rig *nfvRig, offered, delivered, dropped uint64, out map[string]float64) {
	var lookups, misses, fills, evictUnread, ftHit, ftMiss uint64
	for _, e := range rig.machine.LLC.AllEvents() {
		lookups += e.Lookups
		misses += e.Misses
		fills += e.DDIOFills
		evictUnread += e.DDIOEvictUnread
		ftHit += e.DDIOFirstTouchHits
		ftMiss += e.DDIOMissedFirstTouch
	}
	var cycles, l1, l2, dram, accesses uint64
	for q := 0; q < nfvQueues; q++ {
		c := rig.machine.Core(q)
		st := c.Stats()
		cycles += c.Cycles()
		l1 += st.L1Hits
		l2 += st.L2Hits
		dram += st.DRAMOps
		accesses += st.Reads + st.Writes
	}
	inited, cdMisses := rig.director.Stats()
	out["dpdk.rx.pkts"] = float64(delivered)
	out["dpdk.rx.drop_share"] = ratio(float64(dropped), float64(offered))
	out["llc.miss_ratio"] = ratio(float64(misses), float64(lookups))
	out["llc.ddio.fills"] = float64(fills)
	out["llc.ddio.evict_unread"] = float64(evictUnread)
	out["llc.ddio.first_touch_hit_ratio"] = ratio(float64(ftHit), float64(ftHit+ftMiss))
	out["cpusim.cycles_per_pkt"] = ratio(float64(cycles), float64(delivered))
	out["cpusim.l1.hit_ratio"] = ratio(float64(l1), float64(accesses))
	out["cpusim.l2.hit_ratio"] = ratio(float64(l2), float64(accesses-l1))
	out["cpusim.dram_ops_per_pkt"] = ratio(float64(dram), float64(delivered))
	out["cachedirector.miss_share"] = ratio(float64(cdMisses), float64(inited*nfvQueues))
}

func traceNFV(h *harness, res *WorkloadResult) error {
	pkts := h.size.pktsPerRun
	out := map[string]float64{}
	res.PerLayer = out
	root := h.spans.open(0, "nfv-chain/traced", "nfv-chain", 0)
	defer h.spans.close(root)

	// RunRate on a fresh rig: the per-packet time the stages are a budget
	// of, the simulated outputs, and the simulated machine's counters.
	rig, err := buildRig()
	if err != nil {
		return err
	}
	warm, _, _, err := rig.rateRun(h.seed, -1, pkts)
	if err != nil {
		return err
	}
	offered, delivered, dropped := uint64(pkts), warm.Delivered, warm.Dropped
	var sim simOutputs
	var perPkt []float64
	for run := 0; run < h.size.simRuns; run++ {
		t0 := time.Now()
		o, dt, _, err := rig.rateRun(h.seed, run, pkts)
		res.Attempted++
		if err != nil {
			return err
		}
		h.spans.add(root, "netsim.RunRate", "nfv-chain", run, t0, t0.Add(dt))
		if !accountingHolds(o) {
			res.Failed++
			res.problem("traced run %d: packet accounting does not add up", run)
		}
		perPkt = append(perPkt, float64(dt.Nanoseconds())/float64(pkts))
		offered += uint64(pkts)
		delivered += o.Delivered
		dropped += o.Dropped
		sim.latNs = append(sim.latNs, o.LatenciesNs...)
		sim.gbps = append(sim.gbps, o.AchievedGbps)
		sim.digests = append(sim.digests, runDigest(o))
	}
	if sha := sim.sha(); res.OutputSHA256 != "" && res.OutputSHA256 != sha {
		res.problem("traced runs' simulated results differ from the untraced ones: %s vs %s", sha, res.OutputSHA256)
	} else {
		res.OutputSHA256 = sha
	}
	simCounts(rig, offered, delivered, dropped, out)
	// Read before the replay rig and the kernels' scratch state are built:
	// one DuT and its runs, which is what measureNFV holds at a time.
	if out["proc.peak_rss_mb"], err = procPeakRSSMiB(os.Getpid()); err != nil {
		return err
	}
	out["netsim.sim_p99_us"] = sim.p99Us()
	out["netsim.sim_gbps"] = median(sim.gbps)
	runRateNs := median(perPkt)

	replayRig, err := buildRig()
	if err != nil {
		return err
	}
	tot, pas, seen, err := replay(h, root, replayRig, h.size.replayRuns, pkts)
	if err != nil {
		return err
	}
	if len(pas) == 0 {
		return fmt.Errorf("nfv-chain replay delivered no packet")
	}
	replayed := float64(h.size.replayRuns * pkts)
	perStage := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / replayed }
	out["trace.gen.ns_per_pkt"] = perStage(tot.gen)
	out["dpdk.deliver.ns_per_pkt"] = perStage(tot.deliver)
	out["dpdk.rx.ns_per_pkt"] = perStage(tot.rx)
	out["nfv.chain.ns_per_pkt"] = perStage(tot.chain)
	out["dpdk.tx.ns_per_pkt"] = perStage(tot.tx)
	out["netsim.loop.ns_per_pkt"] = runRateNs - perStage(tot.sum())
	out["netsim.replay_coverage"] = ratio(perStage(tot.sum()), runRateNs)
	res.note("netsim.run_rate.ns_per_pkt", runRateNs)

	return nfvKernels(h, pas, seen, out)
}
