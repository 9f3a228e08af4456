package experiments

import (
	"fmt"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/faults"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/stats"
	"sliceaware/internal/trace"
)

// FigFaultsPoint is one chaos configuration of the fault-injection
// ablation: forwarding at 100 Gbps under a misbehaving pipeline.
type FigFaultsPoint struct {
	Label          string
	MispredictRate float64 // fraction of lines the deployed profile mis-slices
	Watchdog       bool
	AchievedGbps   float64
	P99Us          float64
	DroppedPct     float64
	Mode           cachedirector.Mode
	Faults         faults.Counts
	WatchdogStats  cachedirector.WatchdogStats
}

// faultsCase describes one row of the ablation.
type faultsCase struct {
	label      string
	withCD     bool
	mispredict float64
	watchdog   bool
	plan       *faults.Plan
}

// buildFaultsDuT assembles a forwarding DuT whose director (optionally)
// believes a mispredicted slice-hash profile and whose pipeline is
// (optionally) armed with a fault plan.
func buildFaultsDuT(env Env, c faultsCase, hashSeed int64) (*netsim.DuT, *cachedirector.Director, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, nil, err
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: 8, RingSize: 1024, PoolMbufs: 4096,
		HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: dpdk.RSS,
	})
	if err != nil {
		return nil, nil, err
	}
	var dir *cachedirector.Director
	if c.withCD {
		cfg := cachedirector.Config{}
		if c.mispredict > 0 {
			wrong, err := faults.NewMispredictedHash(m.LLC.Hash(), hashSeed, c.mispredict)
			if err != nil {
				return nil, nil, err
			}
			cfg.Hash = wrong
		}
		dir, err = cachedirector.New(m, cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := dir.Attach(port); err != nil {
			return nil, nil, err
		}
		if c.watchdog {
			// Probe densely enough that a bad profile is caught within the
			// first few thousand packets of the run.
			if err := dir.EnableWatchdog(cachedirector.WatchdogConfig{CheckEvery: 64}); err != nil {
				return nil, nil, err
			}
		}
		if env.Telemetry != nil {
			dir.SetTelemetry(env.Telemetry)
		}
	}
	var fi *faults.Injector
	if c.plan != nil {
		fi, err = faults.NewInjector(*c.plan)
		if err != nil {
			return nil, nil, err
		}
	}
	chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
	if err != nil {
		return nil, nil, err
	}
	dut, err := netsim.NewDuT(netsim.DuTConfig{Machine: m, Port: port, Chain: chain, Faults: fi, Telemetry: env.Telemetry})
	if err != nil {
		return nil, nil, err
	}
	return dut, dir, nil
}

// FigFaults runs the chaos ablation: forwarding under a wrong Complex
// Addressing profile (with and without the watchdog) and under NIC/core
// fault injection, against the clean director-on and director-off
// baselines. The headline check: with a fully wrong profile, the watchdog
// must land throughput back at the director-off baseline instead of the
// slice-hostile placement's.
func FigFaults(env Env) ([]FigFaultsPoint, *Table, error) {
	count := env.Scale.pick(8000, 30000)
	hashSeed := env.rng(70).Int63()
	chaos := &faults.Plan{Seed: env.rng(71).Int63(), Events: []faults.Event{
		{Kind: faults.NICDrop, Probability: 0.01},
		{Kind: faults.NICCorrupt, Probability: 0.005},
		{Kind: faults.RingOverflow, Probability: 0.002},
		{Kind: faults.MempoolExhausted, Probability: 0.002},
		{Kind: faults.CoreSlowdown, Probability: 0.3, Magnitude: 2, Core: 2},
		{Kind: faults.BurstTruncate, Probability: 0.1, Magnitude: 0.5},
	}}
	cases := []faultsCase{
		{label: "director off, clean"},
		{label: "director on, clean", withCD: true},
		{label: "wrong profile, no watchdog", withCD: true, mispredict: 1},
		{label: "wrong profile, watchdog", withCD: true, mispredict: 1, watchdog: true},
		{label: "NIC+core chaos, director on", withCD: true, plan: chaos},
	}

	// Each case is a self-contained trial (fresh machine, fresh generator
	// from its fixed rng stream), so the chaos rows fan out across workers.
	out, err := runTrials(env, len(cases), func(trial int) (FigFaultsPoint, error) {
		c := cases[trial]
		dut, dir, err := buildFaultsDuT(env, c, hashSeed)
		if err != nil {
			return FigFaultsPoint{}, err
		}
		g, err := trace.NewCampusMix(env.rng(72), 4096)
		if err != nil {
			return FigFaultsPoint{}, err
		}
		res, err := netsim.RunRate(dut, g, count, 100)
		if err != nil {
			return FigFaultsPoint{}, err
		}
		p := FigFaultsPoint{
			Label:          c.label,
			MispredictRate: c.mispredict,
			Watchdog:       c.watchdog,
			AchievedGbps:   res.AchievedGbps,
			P99Us:          stats.Percentile(res.LatenciesNs, 99) / 1000,
			DroppedPct:     float64(res.Dropped) / float64(res.OfferedPkts) * 100,
			Faults:         res.FaultCounts,
		}
		if dir != nil {
			p.Mode = dir.Mode()
			p.WatchdogStats = dir.WatchdogStats()
		}
		return p, nil
	})
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		ID:    "F-FAULTS",
		Title: "Ablation: fault injection & graceful degradation (forwarding, campus mix @ 100 Gbps)",
		Header: []string{
			"Configuration", "Achieved (Gbps)", "p99 (µs)", "dropped", "mode", "faults fired",
		},
	}
	for _, p := range out {
		t.Rows = append(t.Rows, []string{
			p.Label, f2(p.AchievedGbps), f1(p.P99Us),
			fmt.Sprintf("%.2f%%", p.DroppedPct), p.Mode.String(),
			fmt.Sprintf("%d", p.Faults.Total()),
		})
	}
	t.Notes = append(t.Notes,
		"a wrong Complex Addressing profile makes slice-aware placement slice-hostile; the watchdog's uncore probes detect it and fall back to default DPDK placement",
		"chaos-row drops are injected (wire loss, FCS, ring/mempool pressure), not congestive")
	return out, t, nil
}
