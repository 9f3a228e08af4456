// Command nfvbench drives the simulated NFV testbed for one configuration
// and prints the latency distribution and throughput — the building block
// behind Figures 12–15.
//
// Usage:
//
//	nfvbench [-chain fwd|stateful] [-steering rss|fdir] [-gbps 100]
//	         [-pps 0] [-packets 20000] [-cachedirector] [-runs 3]
//	         [-jobs 1] [-cpuprofile F] [-memprofile F]
//
// -jobs N other than 1 (0 = GOMAXPROCS) fans the -runs repetitions
// across N workers, each on its own freshly built replica of the
// configured DuT. Note the semantics shift: the default sequential mode
// reuses one DuT whose caches stay warm across runs, while parallel
// replicas each start cold, so pooled latencies differ slightly from
// -jobs 1. Replica seeds and result order are deterministic either way.
// Telemetry output forces -jobs 1 (the flight recorder is single-writer).
//
// Chaos testing: the -fault-* flags arm the internal/faults injector
// against the pipeline (deterministically, from -fault-seed), and
// -mispredict/-watchdog deploy a deliberately wrong slice-hash profile
// and CacheDirector's degraded-mode watchdog against it:
//
//	nfvbench -cachedirector -fault-drop 0.01 -fault-corrupt 0.005 \
//	         -fault-slowdown 2 -fault-seed 7
//	nfvbench -cachedirector -mispredict 1 -watchdog
//
// Overload control: -overload arms the AQM (-aqm codel|red|none) on every
// RX ring plus priority-aware shedding at admission; with -cachedirector it
// also wires the backpressure signal into the degradation ladder. -queues
// sizes the port (fewer queues saturate sooner, useful for overload
// studies):
//
//	nfvbench -cachedirector -overload -queues 2 -gbps 60
//
// Telemetry: -metrics-out dumps the metrics registry (Prometheus text,
// or combined JSON when the path ends in .json), -trace-out writes the
// packet flight recorder as a chrome://tracing-loadable trace,
// -trace-sample sets its packet sampling period, and -slice-timeline
// writes the per-slice LLC heat timeline as JSON:
//
//	nfvbench -cachedirector -metrics-out m.prom -trace-out t.jsonl \
//	         -slice-timeline s.json
//
// -metrics-addr additionally serves the registry live over HTTP for the
// duration of the run (GET /metrics, Prometheus text format). Counters
// are atomic; export-time gauges sample a running machine, so a mid-run
// scrape reads approximate gauge values.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/faults"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/overload"
	"sliceaware/internal/parallel"
	"sliceaware/internal/prof"
	"sliceaware/internal/stats"
	"sliceaware/internal/telemetry"
	"sliceaware/internal/trace"
)

func main() {
	chainKind := flag.String("chain", "fwd", "application: fwd or stateful")
	steeringFlag := flag.String("steering", "rss", "NIC steering: rss or fdir")
	gbps := flag.Float64("gbps", 100, "offered load in Gbps (rate mode)")
	pps := flag.Float64("pps", 0, "offered load in packets/s (overrides -gbps)")
	packets := flag.Int("packets", 20000, "packets per run")
	withCD := flag.Bool("cachedirector", false, "attach CacheDirector")
	queues := flag.Int("queues", 8, "RX/TX queue pairs on the port")
	overloadFlag := flag.Bool("overload", false, "arm overload control: AQM on RX rings + priority shedding (+ degradation ladder with -cachedirector)")
	aqmFlag := flag.String("aqm", "codel", "AQM policy with -overload: codel, red, or none")
	runs := flag.Int("runs", 3, "back-to-back runs (latencies pooled)")
	jobs := flag.Int("jobs", 1, "workers for the runs; >1 gives each run a fresh cold DuT replica (0 = GOMAXPROCS)")
	pktSize := flag.Int("size", 0, "fixed frame size; 0 = campus mix")
	faultDrop := flag.Float64("fault-drop", 0, "wire-loss probability per frame")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "FCS-corruption probability per frame")
	faultRing := flag.Float64("fault-ring", 0, "injected ring-overflow probability per frame")
	faultPool := flag.Float64("fault-pool", 0, "injected mempool-exhaustion probability per Get")
	faultSlowdown := flag.Float64("fault-slowdown", 1, "service-time multiplier when a slowdown fires (≥1)")
	faultSlowdownP := flag.Float64("fault-slowdown-p", 0.5, "per-packet probability of the slowdown (with -fault-slowdown > 1)")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed (same seed, same chaos)")
	mispredict := flag.Float64("mispredict", 0, "fraction of lines the deployed slice-hash profile gets wrong")
	watchdog := flag.Bool("watchdog", false, "arm CacheDirector's placement watchdog (degraded-mode fallback)")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry here (Prometheus text; .json = combined JSON)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP at this address during the run (GET /metrics)")
	traceOut := flag.String("trace-out", "", "write the packet flight recorder here (chrome://tracing JSON, one event per line)")
	traceSample := flag.Int("trace-sample", 64, "record full stage spans for every N-th packet")
	sliceTimeline := flag.String("slice-timeline", "", "write the per-slice LLC heat timeline here (JSON)")
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	steering := dpdk.RSS
	if *steeringFlag == "fdir" {
		steering = dpdk.FlowDirector
	} else if *steeringFlag != "rss" {
		fmt.Fprintf(os.Stderr, "nfvbench: unknown steering %q\n", *steeringFlag)
		os.Exit(2)
	}
	if *chainKind != "fwd" && *chainKind != "stateful" {
		fmt.Fprintf(os.Stderr, "nfvbench: unknown chain %q\n", *chainKind)
		os.Exit(2)
	}
	if *aqmFlag != "codel" && *aqmFlag != "red" && *aqmFlag != "none" {
		fmt.Fprintf(os.Stderr, "nfvbench: unknown AQM %q (want codel, red, or none)\n", *aqmFlag)
		os.Exit(2)
	}
	if !*withCD && (*mispredict > 0 || *watchdog) {
		fmt.Fprintln(os.Stderr, "nfvbench: -mispredict/-watchdog need -cachedirector")
		os.Exit(2)
	}

	var plan faults.Plan
	plan.Seed = *faultSeed
	addEvent := func(kind faults.Kind, p, magnitude float64, core int) {
		if p < 0 || p > 1 {
			fmt.Fprintf(os.Stderr, "nfvbench: %s probability %g outside [0,1]\n", kind, p)
			os.Exit(2)
		}
		if p > 0 {
			plan.Events = append(plan.Events, faults.Event{Kind: kind, Probability: p, Magnitude: magnitude, Core: core})
		}
	}
	addEvent(faults.NICDrop, *faultDrop, 0, 0)
	addEvent(faults.NICCorrupt, *faultCorrupt, 0, 0)
	addEvent(faults.RingOverflow, *faultRing, 0, 0)
	addEvent(faults.MempoolExhausted, *faultPool, 0, 0)
	if *faultSlowdown > 1 {
		addEvent(faults.CoreSlowdown, *faultSlowdownP, *faultSlowdown, -1)
	}

	check(profFlags.Start())

	var collector *telemetry.Collector
	if *metricsOut != "" || *traceOut != "" || *sliceTimeline != "" || *metricsAddr != "" {
		collector = telemetry.New(telemetry.Config{Shards: 8, SampleEvery: *traceSample})
	}
	if *metricsAddr != "" {
		msrv, err := telemetry.StartMetricsServer(*metricsAddr, telemetry.MetricsHandler(collector.Registry()))
		check(err)
		defer msrv.Close()
		fmt.Printf("live metrics: %s/metrics\n", msrv.URL())
	}

	// build assembles one complete DuT for the configured flags. The
	// sequential path builds exactly one; -jobs > 1 builds a cold replica
	// per run.
	build := func(col *telemetry.Collector) (*bench, error) {
		m, err := cpusim.NewMachine(arch.HaswellE52667v3())
		if err != nil {
			return nil, err
		}
		port, err := dpdk.NewPort(m, dpdk.PortConfig{
			Queues: *queues, RingSize: 1024, PoolMbufs: 4096,
			HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: steering,
		})
		if err != nil {
			return nil, err
		}
		var director *cachedirector.Director
		if *withCD {
			cfg := cachedirector.Config{}
			if *mispredict > 0 {
				wrong, err := faults.NewMispredictedHash(m.LLC.Hash(), *faultSeed, *mispredict)
				if err != nil {
					return nil, err
				}
				cfg.Hash = wrong
			}
			director, err = cachedirector.New(m, cfg)
			if err != nil {
				return nil, err
			}
			if err := director.Attach(port); err != nil {
				return nil, err
			}
			if *watchdog {
				if err := director.EnableWatchdog(cachedirector.WatchdogConfig{CheckEvery: 64}); err != nil {
					return nil, err
				}
			}
			if col != nil {
				director.SetTelemetry(col)
			}
		}
		var ovCfg *netsim.OverloadConfig
		if *overloadFlag {
			ovCfg = &netsim.OverloadConfig{Shed: &overload.ShedConfig{}}
			switch *aqmFlag {
			case "codel":
				ovCfg.AQM = func(int) overload.AQM {
					a, err := overload.NewCoDel(overload.CoDelConfig{})
					check(err) // defaults never fail
					return a
				}
			case "red":
				ovCfg.AQM = func(q int) overload.AQM {
					a, err := overload.NewRED(overload.REDConfig{Seed: *faultSeed + int64(q)})
					check(err) // defaults never fail
					return a
				}
			}
			if director != nil {
				if err := director.EnableLadder(overload.LadderConfig{}); err != nil {
					return nil, err
				}
				ovCfg.Pressure = director.ObservePressure
			}
		}
		var injector *faults.Injector
		if len(plan.Events) > 0 {
			injector, err = faults.NewInjector(plan)
			if err != nil {
				return nil, err
			}
		}
		var chain *nfv.Chain
		overhead := uint64(netsim.DefaultOverheadCycles)
		switch *chainKind {
		case "fwd":
			chain, err = nfv.NewChain("fwd", nfv.NewForwarder())
		case "stateful":
			router, rerr := nfv.NewRouter(m.Space)
			if rerr != nil {
				return nil, rerr
			}
			if rerr := router.PopulateDefaultAndRandom(3120); rerr != nil {
				return nil, rerr
			}
			router.HWOffload = true
			napt, rerr := nfv.NewNAPT(m.Space, 1<<15, 0xc0a80001)
			if rerr != nil {
				return nil, rerr
			}
			lb, rerr := nfv.NewLoadBalancer(m.Space, 1<<15, 16)
			if rerr != nil {
				return nil, rerr
			}
			chain, err = nfv.NewChain("Router-NAPT-LB", router, napt, lb)
			overhead = netsim.MetronOverheadCycles
		}
		if err != nil {
			return nil, err
		}
		dut, err := netsim.NewDuT(netsim.DuTConfig{Machine: m, Port: port, Chain: chain, OverheadCycles: overhead, Faults: injector, Telemetry: col, Overload: ovCfg})
		if err != nil {
			return nil, err
		}
		return &bench{dut: dut, director: director, injector: injector}, nil
	}

	// runOne drives run r on b and resets it (caches stay warm) for the
	// next run. The per-run generator seed is fixed, so results do not
	// depend on which worker ran which replica.
	runOne := func(b *bench, r int) (netsim.Result, error) {
		var gen trace.Generator
		var err error
		rng := rand.New(rand.NewSource(int64(1000 + r)))
		if *pktSize > 0 {
			gen, err = trace.NewFixedSize(rng, *pktSize, 1024)
		} else {
			gen, err = trace.NewCampusMix(rng, 4096)
		}
		if err != nil {
			return netsim.Result{}, err
		}
		var out netsim.Result
		if *pps > 0 {
			out, err = netsim.RunPPS(b.dut, gen, *packets, *pps)
		} else {
			out, err = netsim.RunRate(b.dut, gen, *packets, *gbps)
		}
		if err != nil {
			return netsim.Result{}, err
		}
		b.dut.Reset()
		b.dut.Port().ResetStats()
		return out, nil
	}

	workers := *jobs
	if collector != nil {
		workers = 1 // the flight recorder/timeline are single-writer
	}

	var director *cachedirector.Director
	var injector *faults.Injector
	var faultCounts faults.Counts
	var outs []netsim.Result
	if workers == 1 {
		b, err := build(collector)
		check(err)
		director, injector = b.director, b.injector
		for r := 0; r < *runs; r++ {
			out, err := runOne(b, r)
			check(err)
			outs = append(outs, out)
		}
		if injector != nil {
			faultCounts = injector.Counts()
		}
	} else {
		// One cold replica per run; results collect in run order, so the
		// output is deterministic for every worker count.
		benches := make([]*bench, *runs)
		var err error
		outs, err = parallel.Map(workers, *runs, func(r int) (netsim.Result, error) {
			b, err := build(nil)
			if err != nil {
				return netsim.Result{}, err
			}
			benches[r] = b
			return runOne(b, r)
		})
		check(err)
		for _, b := range benches {
			if b.injector != nil {
				faultCounts.Add(b.injector.Counts())
			}
		}
		// Mode/ladder/watchdog summaries come from the last replica — the
		// deepest-numbered run, matching the sequential tool's "state at
		// exit" reading.
		last := benches[*runs-1]
		director, injector = last.director, last.injector
	}

	var lat []float64
	var achieved []float64
	var dropped, shed uint64
	var shedByClass []uint64
	var drops dpdk.PortStats
	for _, out := range outs {
		lat = append(lat, out.LatenciesNs...)
		achieved = append(achieved, out.AchievedGbps)
		dropped += out.Dropped
		shed += out.Shed
		if len(out.ShedByClass) > 0 {
			if shedByClass == nil {
				shedByClass = make([]uint64, len(out.ShedByClass))
			}
			for c, n := range out.ShedByClass {
				shedByClass[c] += n
			}
		}
		drops.RxDropRing += out.DropBreakdown.RxDropRing
		drops.RxDropPool += out.DropBreakdown.RxDropPool
		drops.RxDropWire += out.DropBreakdown.RxDropWire
		drops.RxDropCorrupt += out.DropBreakdown.RxDropCorrupt
		drops.RxDropAQM += out.DropBreakdown.RxDropAQM
	}

	s := stats.Summarize(lat)
	cd := ""
	if *withCD {
		cd = " + CacheDirector"
	}
	chainName := "fwd"
	if *chainKind == "stateful" {
		chainName = "Router-NAPT-LB"
	}
	fmt.Printf("%s (%s steering)%s — %d runs × %d packets\n", chainName, steering, cd, *runs, *packets)
	fmt.Printf("  throughput (median): %.2f Gbps, dropped %d\n", stats.Percentile(achieved, 50), dropped)
	fmt.Printf("  DuT latency (ns): p50=%.0f p75=%.0f p90=%.0f p95=%.0f p99=%.0f mean=%.0f max=%.0f\n",
		s.P50, s.P75, s.P90, s.P95, s.P99, s.Mean, s.Max)
	fmt.Printf("  min loopback at this rate: %.0f ns (excluded above)\n", netsim.MinLoopbackNanos(*gbps))
	if injector != nil {
		c := faultCounts
		fmt.Printf("  injected faults: %d (wire %d, fcs %d, ring %d, pool %d, slowed %d, truncated %d)\n",
			c.Total(), c.NICDrops, c.NICCorrupts, c.RingOverflows, c.MempoolFails, c.SlowedPackets, c.TruncatedBursts)
		fmt.Printf("  drop breakdown: ring %d, pool %d, wire %d, corrupt %d\n",
			drops.RxDropRing, drops.RxDropPool, drops.RxDropWire, drops.RxDropCorrupt)
	}
	if *overloadFlag {
		fmt.Printf("  overload: shed %d (by class, low→high: %v), aqm early drops %d, ring drops %d\n",
			shed, shedByClass, drops.RxDropAQM, drops.RxDropRing)
		if director != nil {
			ls := director.Ladder().Stats()
			fmt.Printf("  degradation ladder: level=%s escalations=%d recoveries=%d\n",
				director.CurrentLevel(), ls.Escalations, ls.Recoveries)
		}
	}
	if director != nil && *watchdog {
		ws := director.WatchdogStats()
		fmt.Printf("  watchdog: mode=%s probes=%d misses=%d degradations=%d recoveries=%d\n",
			director.Mode(), ws.Probes, ws.ProbeMisses, ws.Degradations, ws.Recoveries)
	}

	if collector != nil {
		if *metricsOut != "" {
			check(writeTo(*metricsOut, func(w io.Writer) error {
				if strings.HasSuffix(*metricsOut, ".json") {
					return collector.WriteJSON(w)
				}
				return collector.Registry().WritePrometheus(w)
			}))
			fmt.Printf("  telemetry: metrics → %s\n", *metricsOut)
		}
		if *traceOut != "" {
			check(writeTo(*traceOut, collector.WriteChromeTrace))
			fmt.Printf("  telemetry: flight trace → %s (load in chrome://tracing)\n", *traceOut)
		}
		if *sliceTimeline != "" {
			check(writeTo(*sliceTimeline, collector.Timeline().WriteJSON))
			fmt.Printf("  telemetry: slice heat timeline → %s\n", *sliceTimeline)
		}
	}
	check(profFlags.Stop())
}

// bench is one fully assembled DuT replica.
type bench struct {
	dut      *netsim.DuT
	director *cachedirector.Director
	injector *faults.Injector
}

// writeTo renders through fn into path, creating/truncating it.
func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfvbench:", err)
		os.Exit(1)
	}
}
