// Command isobench drives the cache-isolation studies: the §7 comparison
// of CAT way-isolation vs slice isolation under a noisy neighbour, the
// hypervisor-style per-VM slice carving §7 proposes as future work, and
// the multi-tenant leaky-DMA isolation loop (one point of the F-TENANT
// sweep: a DPI victim vs a forwarding hog, controller off or on).
//
// Usage:
//
//	isobench [-mode cat|vmm|tenant] [-ops 12000] [-noise 8] [-write]
//	isobench -mode tenant [-hog 3] [-controller] [-full] [-seed 1]
//	         [-jobs 1] [-metrics-out tenant.prom]
//	         [-cpuprofile F] [-memprofile F]
//
// -jobs fans the tenant study's independent trials (calibration runs,
// baseline vs measured point) across workers; output is byte-identical
// for every value. -metrics-out forces sequential execution.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"sliceaware/internal/arch"
	"sliceaware/internal/cat"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/experiments"
	"sliceaware/internal/prof"
	"sliceaware/internal/telemetry"
	"sliceaware/internal/vmm"
)

func main() {
	mode := flag.String("mode", "cat", "experiment: cat (Fig 17), vmm (§7 hypervisor), or tenant (leaky-DMA isolation)")
	ops := flag.Int("ops", 12000, "measured operations per application/VM")
	noise := flag.Int("noise", 8, "noisy-neighbour accesses per main-app op (cat mode)")
	write := flag.Bool("write", false, "measure the write variant (cat mode)")
	hog := flag.Float64("hog", 3, "hog offered load as a multiple of its solo capacity (tenant mode)")
	controller := flag.Bool("controller", false, "arm the isolation controller (tenant mode)")
	full := flag.Bool("full", false, "full-scale packet counts (tenant mode; default quick)")
	seed := flag.Int64("seed", 1, "run-wide seed (tenant mode)")
	jobs := flag.Int("jobs", 1, "workers for independent trials (tenant mode; 0 = GOMAXPROCS)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry registry here (tenant mode; Prometheus text, .json = combined JSON)")
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	check(profFlags.Start())

	switch *mode {
	case "cat":
		runCAT(*ops, *noise, *write)
	case "vmm":
		runVMM(*ops)
	case "tenant":
		env := experiments.Env{Seed: *seed, Jobs: *jobs, Scale: experiments.Quick}
		if *full {
			env.Scale = experiments.Full
		}
		runTenant(env, *hog, *controller, *metricsOut)
	default:
		fmt.Fprintf(os.Stderr, "isobench: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	check(profFlags.Stop())
}

func runCAT(ops, noise int, write bool) {
	kind := "read"
	if write {
		kind = "write"
	}
	fmt.Printf("CAT vs slice isolation (Xeon Gold 6134), %s ops, %d noise/op\n\n", kind, noise)
	var times []float64
	scenarios := []cat.Scenario{cat.NoCAT, cat.WayIsolated, cat.SliceIsolated}
	for _, scen := range scenarios {
		m, err := cpusim.NewMachine(arch.SkylakeGold6134())
		check(err)
		e, err := cat.New(m, cat.Config{Scenario: scen})
		check(err)
		e.Warmup()
		res, err := e.Run(ops, noise, write, rand.New(rand.NewSource(11)))
		check(err)
		fmt.Printf("  %-17s %.3f ms  (DRAM rate %.1f%%)\n", scen, res.ExecTimeMs, res.MainDRAMRate*100)
		times = append(times, res.ExecTimeMs)
	}
	fmt.Printf("\nslice isolation vs 2W CAT: %.1f%% faster (paper Fig 17: ≈11%%)\n",
		(times[1]-times[2])/times[1]*100)
}

func runVMM(ops int) {
	fmt.Println("hypervisor slice isolation (quiet 3 MB VM + noisy streaming VM, Gold 6134)")
	fmt.Println()
	for _, policy := range []vmm.Policy{vmm.Shared, vmm.SliceIsolated} {
		m, err := cpusim.NewMachine(arch.SkylakeGold6134())
		check(err)
		h, err := vmm.New(m, policy)
		check(err)
		_, err = h.AddVM(vmm.VMConfig{Name: "quiet", Core: 0, WorkingSet: 3 << 20})
		check(err)
		_, err = h.AddVM(vmm.VMConfig{Name: "noisy", Core: 4, WorkingSet: 64 << 20, Noisy: true})
		check(err)
		h.Warmup()
		res, err := h.Run(ops)
		check(err)
		fmt.Printf("  policy %-15s", policy)
		for _, r := range res {
			fmt.Printf("  %s: %.1f cyc/op", r.Name, r.CyclesPerOp)
		}
		fmt.Println()
		for _, vm := range h.VMs() {
			fmt.Printf("    %s slices: %v\n", vm.Name(), vm.Slices())
		}
	}
}

// runTenant runs one point of the F-TENANT study: the DPI victim solo,
// then the same victim sharing the socket with a forwarding hog offered
// `hogFactor`× its own capacity, with the isolation controller disarmed or
// armed. It prints both tails, the leak counters, and every controller
// decision.
func runTenant(env experiments.Env, hogFactor float64, controllerOn bool, metricsOut string) {
	if metricsOut != "" {
		env.Telemetry = telemetry.New(telemetry.Config{Shards: 8})
	}

	state := "off"
	if controllerOn {
		state = "on"
	}
	fmt.Printf("multi-tenant leaky DMA (%s scale): DPI victim vs %.1fx forwarding hog, controller %s\n\n",
		env.Scale, hogFactor, state)

	solo, pt, err := experiments.FigTenantSingle(env, controllerOn, hogFactor)
	check(err)

	fmt.Printf("  victim solo:      p99 %.1f µs (steady), first-touch miss %.1f%%\n",
		solo.VictimP99Us, solo.VictimMissPct)
	fmt.Printf("  victim with hog:  p99 %.1f µs (steady), %.2fx solo, first-touch miss %.1f%%\n",
		pt.VictimP99Us, pt.RatioVsSolo, pt.VictimMissPct)
	fmt.Printf("  hog achieved:     %.1f Gbps\n", pt.HogAchievedGbps)
	fmt.Printf("  leak counters:    %d unread RX lines evicted, %d first-touch reads missed\n",
		pt.EvictUnread, pt.MissedFirst)
	fmt.Printf("  controller:       %d isolations, %d releases, %d suppressed, level %d\n",
		pt.Stats.Isolations, pt.Stats.Releases, pt.Stats.SuppressedReleases, pt.Level)
	for _, d := range pt.Decisions {
		fmt.Printf("    t=%.0fµs %s -> level %d (pressure %.3f)\n",
			d.TimeNs/1e3, d.Direction, d.Level, d.Pressure)
	}

	if metricsOut != "" {
		c := env.Telemetry
		check(writeTo(metricsOut, func(w io.Writer) error {
			if strings.HasSuffix(metricsOut, ".json") {
				return c.WriteJSON(w)
			}
			return c.Registry().WritePrometheus(w)
		}))
		fmt.Printf("\n  telemetry: metrics -> %s\n", metricsOut)
	}
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
		fmt.Fprintln(os.Stderr, "isobench:", err)
		os.Exit(1)
	}
}
