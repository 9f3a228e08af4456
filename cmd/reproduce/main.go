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
// -jobs fans the selected experiments, and each experiment's independent
// trials, across N workers (0 = GOMAXPROCS). Experiments are dispatched
// in catalog order and each one's output is printed as soon as it and
// every experiment before it are done. Trials derive their randomness
// from fixed per-stream seeds and results are collected in trial order,
// so the printed tables are byte-identical for every -jobs value. Only
// the "(ID in T)" footers differ: under -jobs > 1 each is that
// experiment's own elapsed time while it shared the CPUs with others.
//
// -metrics-dir gives every experiment a telemetry collector of its own,
// arms it on the experiment's DuTs and dumps it as one Prometheus text
// file (DIR/<id>.prom) plus the experiment's slice heat timeline
// (DIR/<id>.timeline.json). Telemetry is observation-only: the printed
// tables and the dumps are byte-identical with and without it and for
// every -jobs value. Experiments still overlap under -jobs N; only the
// trials within one armed experiment run one after another, because its
// timeline is single-writer.
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
	"strings"
	"time"

	"sliceaware/internal/experiments"
	"sliceaware/internal/prof"
)

// tableOf is the task body of an experiment that prints only its table.
func tableOf[R any](fn func(experiments.Env) (R, *experiments.Table, error)) func(experiments.Env, io.Writer) (*experiments.Table, error) {
	return func(env experiments.Env, _ io.Writer) (*experiments.Table, error) {
		_, t, err := fn(env)
		return t, err
	}
}

// plan builds the ordered task list of one run: the paper artifacts
// selected by want (all of them when want is empty), then the ablations
// and extensions selected by want or by all. fig13 and fig14 compute the
// two NFV figures Table 3 is derived from. With every experiment
// selected, the list is the experiment catalog in its order; the tests
// hold plan to that, so -list and -only validation cannot drift from
// what runs.
func plan(want map[string]bool, all bool, fig13, fig14 nfvRunner) (tasks []task) {
	selected := func(id string) bool { return len(want) == 0 || want[id] }
	show := func(id string, run func(experiments.Env, io.Writer) (*experiments.Table, error)) {
		if selected(id) {
			tasks = append(tasks, task{id: id, run: run})
		}
	}

	show("T1", func(experiments.Env, io.Writer) (*experiments.Table, error) { return experiments.Table1(), nil })
	show("F4", tableOf(experiments.Figure4))
	show("F5", tableOf(experiments.Figure5))
	show("F6", tableOf(experiments.Figure6))
	show("F7", tableOf(experiments.Figure7))
	show("F8", tableOf(experiments.Figure8))
	show("HR", tableOf(experiments.Headroom))
	show("F12", tableOf(experiments.Figure12))

	f13, f14 := newNFVFigure(fig13, selected("F13")), newNFVFigure(fig14, selected("F14"))
	show("F13", func(env experiments.Env, _ io.Writer) (*experiments.Table, error) { return f13.own(env) })
	show("F14", func(env experiments.Env, w io.Writer) (*experiments.Table, error) {
		t, err := f14.own(env)
		if err == nil {
			experiments.CDFTable(f14.res, 12).Fprint(w)
			fmt.Fprintln(w, experiments.CDFPlot(f14.res, 64, 64, 16))
		}
		return t, err
	})
	show("T3", func(env experiments.Env, _ io.Writer) (*experiments.Table, error) {
		r13, err := f13.result(env)
		if err != nil {
			return nil, err
		}
		r14, err := f14.result(env)
		if err != nil {
			return nil, err
		}
		_, t := experiments.Table3From(r13, r14)
		return t, nil
	})
	show("F15", func(env experiments.Env, w io.Writer) (*experiments.Table, error) {
		res, t, err := experiments.Figure15(env)
		if err == nil {
			fmt.Fprintln(w, experiments.KneePlot(res, 64, 16))
		}
		return t, err
	})
	show("F16", tableOf(experiments.Figure16))
	show("T4", func(experiments.Env, io.Writer) (*experiments.Table, error) {
		_, t, err := experiments.Table4()
		return t, err
	})
	show("F17", tableOf(experiments.Figure17))

	// Ablations and extensions (run when selected explicitly, or with -all).
	selected = func(id string) bool { return want[id] || (all && len(want) == 0) }
	show("A-DDIO", tableOf(experiments.AblationDDIOWays))
	show("A-PLACE", tableOf(experiments.AblationPlacement))
	show("A-STEER", tableOf(experiments.AblationSteering))
	show("A-MULTI", tableOf(experiments.AblationMultiSlice))
	show("A-PF", tableOf(experiments.AblationPrefetch))
	show("A-RP", tableOf(experiments.AblationReplacement))
	show("S6", tableOf(experiments.SkylakeCacheDirector))
	show("S8V", tableOf(experiments.LargeValueKVS))
	show("S8M", tableOf(experiments.HotMigration))
	show("S9C", func(experiments.Env, io.Writer) (*experiments.Table, error) { return experiments.PageColoringDemo() })
	show("S7H", tableOf(experiments.VMIsolation))
	show("S8S", tableOf(experiments.SharedDataPlacement))
	show("S4V", tableOf(experiments.OffsetTarget))
	show("F-FAULTS", tableOf(experiments.FigFaults))
	show("F-OVERLOAD", func(env experiments.Env, w io.Writer) (*experiments.Table, error) {
		_, t, err := experiments.FigOverload(env)
		if err != nil {
			return nil, err
		}
		t.Fprint(w)
		return experiments.OverloadBreakerStorm(env)
	})
	show("F-TENANT", tableOf(experiments.FigTenant))
	return tasks
}

func main() {
	scaleFlag := flag.String("scale", "quick", "sample counts: quick or full")
	onlyFlag := flag.String("only", "", "comma-separated experiment IDs (default: all paper artifacts)")
	allFlag := flag.Bool("all", false, "also run ablations and extensions (A-*, S*)")
	seedFlag := flag.Int64("seed", 1, "run-wide seed; same seed reproduces the same numbers")
	jobsFlag := flag.Int("jobs", 1, "workers for experiments and their independent trials (0 = GOMAXPROCS); tables are byte-identical for any value")
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

	if err := profFlags.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		os.Exit(1)
	}

	env := experiments.Env{Seed: *seedFlag, Jobs: *jobsFlag}
	switch *scaleFlag {
	case "quick":
		env.Scale = experiments.Quick
	case "full":
		env.Scale = experiments.Full
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

	fmt.Printf("# Reproduction run (%s scale) — %s\n\n", env.Scale, time.Now().Format(time.RFC3339))

	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
			os.Exit(1)
		}
	}
	tasks := plan(want, *allFlag, experiments.Figure13, experiments.Figure14)
	exit := runTasks(tasks, env, *metricsDir, os.Stdout, os.Stderr)

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
