// Command reproduce regenerates every table and figure of the paper's
// evaluation on the simulated testbed and prints them in paper-style rows.
//
// Usage:
//
//	reproduce [-scale quick|full] [-seed N] [-only T1,F4,F5,...] [-all]
//	          [-jobs N] [-metrics-dir DIR] [-cpuprofile F] [-memprofile F]
//	          [-list]
//
// -list prints the experiment catalog (IDs, kinds, titles, scales) as
// JSON and exits; cmd/fleet and scenario validation discover valid
// targets from it instead of hardcoding them. -only entries are
// validated against the same catalog: an unknown ID is a hard error
// (exit 2) listing the valid set, never a silent no-op run.
//
// -jobs fans each figure's independent trials across N workers (0 =
// GOMAXPROCS). Trials derive their randomness from fixed per-stream
// seeds and results are collected in trial order, so the printed tables
// are byte-identical for every -jobs value.
//
// -metrics-dir arms telemetry on every experiment DuT and dumps one
// Prometheus text file per figure (DIR/<id>.prom) plus the figure's
// slice heat timeline (DIR/<id>.timeline.json). Telemetry is
// observation-only: the printed tables are byte-identical with and
// without it. An armed collector forces -jobs down to 1 (its timeline
// is single-writer).
//
// Paper artifacts: T1 F4 F5 F6 F7 F8 HR F12 F13 F14 T3 F15 F16 T4 F17
// (T3 is derived from F13+F14 and runs them if not already selected).
// Ablations/extensions (with -all or by ID): A-DDIO A-PLACE A-STEER
// A-MULTI A-PF S6 S8V S8M S9C F-FAULTS F-OVERLOAD (the overload sweep
// also prints the F-OVERLOAD/B migration circuit-breaker table) and
// F-TENANT (the multi-tenant leaky-DMA isolation loop).
//
// -seed fixes the run-wide seed every experiment derives its randomness
// from: two invocations with the same seed and selection print identical
// numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sliceaware/internal/experiments"
	"sliceaware/internal/prof"
	"sliceaware/internal/telemetry"
)

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

func main() {
	scaleFlag := flag.String("scale", "quick", "sample counts: quick or full")
	onlyFlag := flag.String("only", "", "comma-separated experiment IDs (default: all paper artifacts)")
	allFlag := flag.Bool("all", false, "also run ablations and extensions (A-*, S*)")
	seedFlag := flag.Int64("seed", 1, "run-wide seed; same seed reproduces the same numbers")
	jobsFlag := flag.Int("jobs", 1, "workers for independent trials (0 = GOMAXPROCS); output is byte-identical for any value")
	metricsDir := flag.String("metrics-dir", "", "dump per-figure telemetry (Prometheus text + slice timeline JSON) into this directory")
	listFlag := flag.Bool("list", false, "print the experiment catalog (IDs, kinds, scales) as JSON and exit")
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	if *listFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(experiments.Catalog()); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
		return
	}

	experiments.SetSeed(*seedFlag)
	experiments.SetJobs(*jobsFlag)
	if err := profFlags.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "reproduce: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *onlyFlag != "" {
		ids, err := experiments.ValidateIDs(strings.Split(*onlyFlag, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: -only: %v\n", err)
			os.Exit(2)
		}
		if len(ids) == 0 {
			fmt.Fprintf(os.Stderr, "reproduce: -only selected no experiments (valid: %s)\n",
				strings.Join(experiments.ValidIDs(), " "))
			os.Exit(2)
		}
		for _, id := range ids {
			want[id] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	fmt.Printf("# Reproduction run (%s scale) — %s\n\n", scale, time.Now().Format(time.RFC3339))

	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
	}
	// dumpTelemetry writes one figure's metrics + timeline and re-arms a
	// fresh collector for the next, so each dump covers one figure only.
	dumpTelemetry := func(id string) {
		if *metricsDir == "" {
			return
		}
		c := experiments.Collector()
		if c != nil {
			base := filepath.Join(*metricsDir, strings.ToLower(id))
			if err := writeTo(base+".prom", c.Registry().WritePrometheus); err != nil {
				fmt.Fprintf(os.Stderr, "reproduce: telemetry dump %s: %v\n", id, err)
			}
			if err := writeTo(base+".timeline.json", c.Timeline().WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "reproduce: telemetry dump %s: %v\n", id, err)
			}
		}
		experiments.SetCollector(telemetry.New(telemetry.Config{Shards: 8}))
	}
	if *metricsDir != "" {
		experiments.SetCollector(telemetry.New(telemetry.Config{Shards: 8}))
	}

	exit := 0
	// registered collects every experiment ID this binary can run so the
	// shared catalog (reproduce -list, scenario validation) provably
	// matches the dispatch below.
	registered := map[string]bool{}
	show := func(id string, run func() (*experiments.Table, error)) {
		registered[id] = true
		if !selected(id) {
			return
		}
		start := time.Now()
		tab, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s failed: %v\n", id, err)
			exit = 1
			return
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		dumpTelemetry(id)
	}

	show("T1", func() (*experiments.Table, error) { return experiments.Table1(), nil })
	show("F4", func() (*experiments.Table, error) { _, t, err := experiments.Figure4(scale); return t, err })
	show("F5", func() (*experiments.Table, error) { _, t, err := experiments.Figure5(scale); return t, err })
	show("F6", func() (*experiments.Table, error) { _, t, err := experiments.Figure6(scale); return t, err })
	show("F7", func() (*experiments.Table, error) { _, t, err := experiments.Figure7(scale); return t, err })
	show("F8", func() (*experiments.Table, error) { _, t, err := experiments.Figure8(scale); return t, err })
	show("HR", func() (*experiments.Table, error) { _, t, err := experiments.Headroom(scale); return t, err })
	show("F12", func() (*experiments.Table, error) { _, t, err := experiments.Figure12(scale); return t, err })

	var f13, f14 *experiments.NFVLatencyResult
	show("F13", func() (*experiments.Table, error) {
		res, t, err := experiments.Figure13(scale)
		f13 = res
		return t, err
	})
	show("F14", func() (*experiments.Table, error) {
		res, t, err := experiments.Figure14(scale)
		f14 = res
		if err == nil {
			experiments.CDFTable(res, 12).Fprint(os.Stdout)
			fmt.Println(experiments.CDFPlot(res, 64, 64, 16))
		}
		return t, err
	})
	show("T3", func() (*experiments.Table, error) {
		var err error
		if f13 == nil {
			f13, _, err = experiments.Figure13(scale)
			if err != nil {
				return nil, err
			}
		}
		if f14 == nil {
			f14, _, err = experiments.Figure14(scale)
			if err != nil {
				return nil, err
			}
		}
		_, t := experiments.Table3From(f13, f14)
		return t, nil
	})
	show("F15", func() (*experiments.Table, error) {
		res, t, err := experiments.Figure15(scale)
		if err == nil {
			fmt.Println(experiments.KneePlot(res, 64, 16))
		}
		return t, err
	})
	show("F16", func() (*experiments.Table, error) { _, t, err := experiments.Figure16(scale); return t, err })
	show("T4", func() (*experiments.Table, error) { _, t, err := experiments.Table4(); return t, err })
	show("F17", func() (*experiments.Table, error) { _, t, err := experiments.Figure17(scale); return t, err })

	// Ablations and extensions (run when selected explicitly, or with -all).
	extSelected := func(id string) bool { return want[id] || (*allFlag && len(want) == 0) }
	showExt := func(id string, run func() (*experiments.Table, error)) {
		registered[id] = true
		if !extSelected(id) {
			return
		}
		start := time.Now()
		tab, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s failed: %v\n", id, err)
			exit = 1
			return
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		dumpTelemetry(id)
	}
	showExt("A-DDIO", func() (*experiments.Table, error) { _, t, err := experiments.AblationDDIOWays(scale); return t, err })
	showExt("A-PLACE", func() (*experiments.Table, error) { _, t, err := experiments.AblationPlacement(scale); return t, err })
	showExt("A-STEER", func() (*experiments.Table, error) { _, t, err := experiments.AblationSteering(scale); return t, err })
	showExt("A-MULTI", func() (*experiments.Table, error) { _, t, err := experiments.AblationMultiSlice(scale); return t, err })
	showExt("A-PF", func() (*experiments.Table, error) { _, t, err := experiments.AblationPrefetch(scale); return t, err })
	showExt("A-RP", func() (*experiments.Table, error) { _, t, err := experiments.AblationReplacement(scale); return t, err })
	showExt("S6", func() (*experiments.Table, error) {
		_, t, err := experiments.SkylakeCacheDirector(scale)
		return t, err
	})
	showExt("S8V", func() (*experiments.Table, error) { _, t, err := experiments.LargeValueKVS(scale); return t, err })
	showExt("S8M", func() (*experiments.Table, error) { _, t, err := experiments.HotMigration(scale); return t, err })
	showExt("S9C", func() (*experiments.Table, error) { return experiments.PageColoringDemo() })
	showExt("S7H", func() (*experiments.Table, error) { _, t, err := experiments.VMIsolation(scale); return t, err })
	showExt("S8S", func() (*experiments.Table, error) { _, t, err := experiments.SharedDataPlacement(scale); return t, err })
	showExt("S4V", func() (*experiments.Table, error) { _, t, err := experiments.OffsetTarget(scale); return t, err })
	showExt("F-FAULTS", func() (*experiments.Table, error) { _, t, err := experiments.FigFaults(scale); return t, err })
	showExt("F-OVERLOAD", func() (*experiments.Table, error) {
		_, t, err := experiments.FigOverload(scale)
		if err != nil {
			return nil, err
		}
		t.Fprint(os.Stdout)
		return experiments.OverloadBreakerStorm(scale)
	})
	showExt("F-TENANT", func() (*experiments.Table, error) { _, t, err := experiments.FigTenant(scale); return t, err })

	// Catalog drift guard: every catalog entry must be runnable here and
	// vice versa, or -list/-only validation would lie to scenario files.
	for _, e := range experiments.Catalog() {
		if !registered[e.ID] {
			fmt.Fprintf(os.Stderr, "reproduce: BUG: catalog lists %s but no harness is registered for it\n", e.ID)
			exit = 1
		}
	}
	for id := range registered {
		if !experiments.IsExperiment(id) {
			fmt.Fprintf(os.Stderr, "reproduce: BUG: harness %s is not in the experiment catalog\n", id)
			exit = 1
		}
	}

	// Stop explicitly: os.Exit skips defers, and the CPU profile is only
	// valid once StopCPUProfile has flushed it.
	if err := profFlags.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		if exit == 0 {
			exit = 1
		}
	}
	os.Exit(exit)
}
