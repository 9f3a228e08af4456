// Command kvsbench runs the emulated key-value store of §3.1 under a
// configurable workload and reports TPS — the building block behind Fig 8.
//
// Usage:
//
//	kvsbench [-keys 131072] [-get 1.0] [-skew 0.99|0 for uniform]
//	         [-requests 50000] [-sliceaware] [-trials 1] [-jobs 1]
//	         [-metrics-out m.prom] [-cpuprofile F] [-memprofile F]
//
// -trials T repeats the measurement on T independent stores (trial t
// seeds its key generator with 7+t, so trial 0 reproduces the
// single-trial output exactly) and -jobs N fans them across N workers
// (0 = GOMAXPROCS); per-trial results print in trial order regardless
// of worker count. -metrics-out forces -jobs 1 (one shared registry).
//
// -metrics-addr serves the same registry live over HTTP while the run
// executes (GET /metrics, Prometheus text format) — point a scraper at a
// long multi-trial run instead of waiting for the file dump. Counters
// are atomic; export-time gauges sample a running machine, so a mid-run
// scrape reads approximate gauge values.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/kvs"
	"sliceaware/internal/parallel"
	"sliceaware/internal/prof"
	"sliceaware/internal/telemetry"
	"sliceaware/internal/zipf"
)

func main() {
	keys := flag.Uint64("keys", 1<<17, "number of 64 B values")
	getRatio := flag.Float64("get", 1.0, "GET fraction of the workload")
	skew := flag.Float64("skew", 0.99, "Zipf skew; 0 selects the uniform distribution")
	requests := flag.Int("requests", 50000, "measured requests (a half-size warm-up precedes)")
	sliceAware := flag.Bool("sliceaware", false, "home hot values/index to the serving core's slice")
	core := flag.Int("core", 0, "serving core")
	trials := flag.Int("trials", 1, "independent stores to measure (trial t uses generator seed 7+t)")
	jobs := flag.Int("jobs", 1, "workers for the trials (0 = GOMAXPROCS)")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry here (Prometheus text; .json = combined JSON)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP at this address during the run (GET /metrics)")
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	if *trials < 1 {
		fmt.Fprintln(os.Stderr, "kvsbench: -trials must be >= 1")
		os.Exit(2)
	}
	check(profFlags.Start())

	var collector *telemetry.Collector
	if *metricsOut != "" || *metricsAddr != "" {
		collector = telemetry.New(telemetry.Config{Shards: 8})
	}
	var msrv *telemetry.MetricsServer
	if *metricsAddr != "" {
		var err error
		msrv, err = telemetry.StartMetricsServer(*metricsAddr, telemetry.MetricsHandler(collector.Registry()))
		check(err)
		defer msrv.Close()
		fmt.Printf("  live metrics: %s/metrics\n", msrv.URL())
	}

	type trialResult struct {
		res            kvs.Result
		preferredSlice int
	}
	runTrial := func(t int) (trialResult, error) {
		m, err := cpusim.NewMachine(arch.HaswellE52667v3())
		if err != nil {
			return trialResult{}, err
		}
		store, err := kvs.New(m, kvs.Config{Keys: *keys, ServingCore: *core, SliceAware: *sliceAware})
		if err != nil {
			return trialResult{}, err
		}
		if collector != nil {
			store.SetTelemetry(collector)
		}
		var gen zipf.Generator
		rng := rand.New(rand.NewSource(7 + int64(t)))
		if *skew > 0 {
			gen, err = zipf.NewZipf(rng, *keys, *skew)
		} else {
			gen, err = zipf.NewUniform(rng, *keys)
		}
		if err != nil {
			return trialResult{}, err
		}
		if _, err := store.Run(kvs.Workload{GetRatio: *getRatio, Keys: gen, Requests: *requests / 2}); err != nil {
			return trialResult{}, err
		}
		res, err := store.Run(kvs.Workload{GetRatio: *getRatio, Keys: gen, Requests: *requests})
		if err != nil {
			return trialResult{}, err
		}
		return trialResult{res: res, preferredSlice: store.PreferredSlice()}, nil
	}

	workers := *jobs
	if collector != nil {
		workers = 1 // one shared registry; keep its event order sequential
	}
	results, err := parallel.Map(workers, *trials, runTrial)
	check(err)

	mode := "normal"
	if *sliceAware {
		mode = fmt.Sprintf("slice-aware (slice %d)", results[0].preferredSlice)
	}
	dist := "uniform"
	if *skew > 0 {
		dist = fmt.Sprintf("zipf(%.2f)", *skew)
	}
	fmt.Printf("KVS: %d keys, %s placement, %s keys, %.0f%% GET\n", *keys, mode, dist, *getRatio*100)
	if *trials == 1 {
		res := results[0].res
		fmt.Printf("  %.3f M transactions/s  (%.1f cycles/request; %d GET, %d SET, %d dropped)\n",
			res.TPSMillions, res.CyclesPerReq, res.Gets, res.Sets, res.Dropped)
	} else {
		var tpsSum, cycSum float64
		for t, r := range results {
			fmt.Printf("  trial %d: %.3f M transactions/s  (%.1f cycles/request; %d GET, %d SET, %d dropped)\n",
				t, r.res.TPSMillions, r.res.CyclesPerReq, r.res.Gets, r.res.Sets, r.res.Dropped)
			tpsSum += r.res.TPSMillions
			cycSum += r.res.CyclesPerReq
		}
		n := float64(*trials)
		fmt.Printf("  mean over %d trials: %.3f M transactions/s  (%.1f cycles/request)\n",
			*trials, tpsSum/n, cycSum/n)
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		check(err)
		var werr error
		if strings.HasSuffix(*metricsOut, ".json") {
			werr = collector.WriteJSON(f)
		} else {
			werr = collector.Registry().WritePrometheus(f)
		}
		check(werr)
		check(f.Close())
		fmt.Printf("  telemetry: metrics → %s\n", *metricsOut)
	}
	check(profFlags.Stop())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvsbench:", err)
		os.Exit(1)
	}
}
