package experiments

import (
	"fmt"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/plot"
	"sliceaware/internal/stats"
	"sliceaware/internal/trace"
)

// ChainKind selects the application under test.
type ChainKind int

const (
	// ForwardingChain is the §5.1 MAC-swap application.
	ForwardingChain ChainKind = iota
	// StatefulChain is the §5.2 Router-NAPT-LB service chain with the
	// routing table offloaded to the NIC (Metron-style).
	StatefulChain
)

func (k ChainKind) String() string {
	if k == StatefulChain {
		return "Router-NAPT-LB"
	}
	return "SimpleForwarding"
}

// nfvSetup is one assembled DuT.
type nfvSetup struct {
	machine *cpusim.Machine
	dut     *netsim.DuT
}

// buildNFV assembles an 8-core DuT running the chain, optionally with
// CacheDirector attached, both reporting to env's collector when it has
// one.
func buildNFV(env Env, kind ChainKind, withCD bool, steering dpdk.Steering) (*nfvSetup, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, err
	}
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: 8, RingSize: 1024, PoolMbufs: 4096,
		HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: steering,
	})
	if err != nil {
		return nil, err
	}
	if withCD {
		d, err := cachedirector.New(m, cachedirector.Config{})
		if err != nil {
			return nil, err
		}
		if err := d.Attach(port); err != nil {
			return nil, err
		}
		if env.Telemetry != nil {
			d.SetTelemetry(env.Telemetry)
		}
	}
	var chain *nfv.Chain
	overhead := uint64(netsim.DefaultOverheadCycles)
	switch kind {
	case ForwardingChain:
		chain, err = nfv.NewChain("fwd", nfv.NewForwarder())
	case StatefulChain:
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
	default:
		return nil, fmt.Errorf("experiments: unknown chain kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	dut, err := netsim.NewDuT(netsim.DuTConfig{Machine: m, Port: port, Chain: chain, OverheadCycles: overhead, Telemetry: env.Telemetry})
	if err != nil {
		return nil, err
	}
	return &nfvSetup{machine: m, dut: dut}, nil
}

// NFVLatencyResult carries a base-vs-CacheDirector latency comparison.
type NFVLatencyResult struct {
	Kind     ChainKind
	Steering dpdk.Steering
	Runs     int

	BaseLat []float64 // pooled DuT residency, ns
	CDLat   []float64

	BaseGbps float64 // achieved throughput (median across runs)
	CDGbps   float64
}

// Summaries returns percentile summaries of both sides.
func (r *NFVLatencyResult) Summaries() (base, cd stats.Summary) {
	return stats.Summarize(r.BaseLat), stats.Summarize(r.CDLat)
}

// latencyCompare runs the paired experiment: `runs` back-to-back runs of
// `count` packets per side, pooling latencies.
func latencyCompare(env Env, kind ChainKind, steering dpdk.Steering, runs, count int, offeredGbps, pps float64, gen func(seed int64) (trace.Generator, error)) (*NFVLatencyResult, error) {
	res := &NFVLatencyResult{Kind: kind, Steering: steering, Runs: runs}
	// The back-to-back runs within one side share a DuT on purpose (Reset
	// keeps the caches warm), so a side is inherently sequential; the two
	// sides are independent machines and make a two-trial fan-out.
	type side struct {
		lat  []float64
		gbps float64
	}
	sides, err := runTrials(env, 2, func(trial int) (side, error) {
		withCD := trial == 1
		setup, err := buildNFV(env, kind, withCD, steering)
		if err != nil {
			return side{}, err
		}
		var s side
		var gbps []float64
		for r := 0; r < runs; r++ {
			g, err := gen(int64(100 + r))
			if err != nil {
				return side{}, err
			}
			var out netsim.Result
			if pps > 0 {
				out, err = netsim.RunPPS(setup.dut, g, count, pps)
			} else {
				out, err = netsim.RunRate(setup.dut, g, count, offeredGbps)
			}
			if err != nil {
				return side{}, err
			}
			s.lat = append(s.lat, out.LatenciesNs...)
			gbps = append(gbps, out.AchievedGbps)
			setup.dut.Reset()
			setup.dut.Port().ResetStats()
		}
		s.gbps = stats.Percentile(gbps, 50)
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	res.BaseLat, res.BaseGbps = sides[0].lat, sides[0].gbps
	res.CDLat, res.CDGbps = sides[1].lat, sides[1].gbps
	return res, nil
}

func latencyTable(id, title string, res *NFVLatencyResult, inMicros bool) *Table {
	base, cd := res.Summaries()
	unit := 1.0
	label := "ns"
	if inMicros {
		unit = 1000
		label = "µs"
	}
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"Percentile", "DPDK (" + label + ")", "DPDK+CacheDirector (" + label + ")", "Improvement (" + label + ")", "Speedup"},
	}
	rows := []struct {
		name string
		b, c float64
	}{
		{"75th", base.P75, cd.P75},
		{"90th", base.P90, cd.P90},
		{"95th", base.P95, cd.P95},
		{"99th", base.P99, cd.P99},
		{"Mean", base.Mean, cd.Mean},
	}
	for _, r := range rows {
		speedup := 0.0
		if r.b > 0 {
			speedup = (r.b - r.c) / r.b
		}
		t.Rows = append(t.Rows, []string{
			r.name, f2(r.b / unit), f2(r.c / unit), f2((r.b - r.c) / unit), pct(speedup),
		})
	}
	return t
}

// Figure12 reproduces Fig 12: 64 B packets at 1000 pps through the simple
// forwarding application — the queueing-free view of CacheDirector.
func Figure12(env Env) (*NFVLatencyResult, *Table, error) {
	runs := env.Scale.pick(5, 50)
	count := env.Scale.pick(1000, 5000)
	res, err := latencyCompare(env, ForwardingChain, dpdk.RSS, runs, count, 0, 1000,
		func(seed int64) (trace.Generator, error) {
			return trace.NewFixedSize(env.rng(seed), 64, 1024)
		})
	if err != nil {
		return nil, nil, err
	}
	t := latencyTable("F12", "Simple forwarding, 64 B @ 1000 pps (8 cores, RSS) — DuT latency without loopback", res, false)
	t.Notes = append(t.Notes, fmt.Sprintf("minimum loopback latency (excluded): %.0f ns; %d runs × %d packets", netsim.MinLoopbackNanos(0), runs, count))
	return res, t, nil
}

// Figure13 reproduces Fig 13: simple forwarding with mixed-size campus
// traffic at 100 Gbps, RSS steering.
func Figure13(env Env) (*NFVLatencyResult, *Table, error) {
	runs := env.Scale.pick(3, 20)
	count := env.Scale.pick(15000, 50000)
	res, err := latencyCompare(env, ForwardingChain, dpdk.RSS, runs, count, 100, 0,
		func(seed int64) (trace.Generator, error) {
			return trace.NewCampusMix(env.rng(seed), 4096)
		})
	if err != nil {
		return nil, nil, err
	}
	t := latencyTable("F13", "Simple forwarding, campus mix @ 100 Gbps (8 cores, RSS) — DuT latency without loopback", res, true)
	t.Notes = append(t.Notes, fmt.Sprintf("throughput: %.2f Gbps (DPDK) vs %.2f Gbps (+CacheDirector); min loopback %.0f µs excluded",
		res.BaseGbps, res.CDGbps, netsim.MinLoopbackNanos(100)/1000))
	return res, t, nil
}

// Figure14 reproduces Fig 1/Fig 14: the stateful Router-NAPT-LB chain with
// FlowDirector HW offloading at 100 Gbps, including the latency CDF.
func Figure14(env Env) (*NFVLatencyResult, *Table, error) {
	runs := env.Scale.pick(3, 20)
	count := env.Scale.pick(15000, 50000)
	res, err := latencyCompare(env, StatefulChain, dpdk.FlowDirector, runs, count, 100, 0,
		func(seed int64) (trace.Generator, error) {
			return trace.NewCampusMix(env.rng(seed), 4096)
		})
	if err != nil {
		return nil, nil, err
	}
	t := latencyTable("F14", "Stateful chain (Router-NAPT-LB), campus mix @ 100 Gbps (8 cores, FlowDirector) — DuT latency without loopback", res, true)
	t.Notes = append(t.Notes, fmt.Sprintf("throughput: %.2f Gbps (DPDK) vs %.2f Gbps (+CacheDirector)", res.BaseGbps, res.CDGbps))
	return res, t, nil
}

// CDFPlot renders the Fig 14a CDF as an ASCII chart (latency µs on x,
// cumulative fraction on y).
func CDFPlot(res *NFVLatencyResult, points, width, height int) string {
	toSeries := func(name string, lat []float64) plot.Series {
		s := plot.Series{Name: name}
		for _, c := range stats.CDF(lat, points) {
			s.Points = append(s.Points, plot.XY{X: c.X / 1000, Y: c.F})
		}
		return s
	}
	p := &plot.Plot{
		Title:  "CDF of DuT latency — " + res.Kind.String(),
		XLabel: "latency (µs)",
		YLabel: "fraction",
		Series: []plot.Series{
			toSeries("DPDK", res.BaseLat),
			toSeries("DPDK+CacheDirector", res.CDLat),
		},
	}
	return p.Render(width, height)
}

// KneePlot renders Fig 15 as an ASCII chart.
func KneePlot(res *KneeResult, width, height int) string {
	var base, cd plot.Series
	base.Name, cd.Name = "DPDK", "DPDK+CacheDirector"
	for _, pt := range res.Points {
		base.Points = append(base.Points, plot.XY{X: pt.OfferedGbps, Y: pt.BaseP99Us})
		cd.Points = append(cd.Points, plot.XY{X: pt.OfferedGbps, Y: pt.CDP99Us})
	}
	p := &plot.Plot{
		Title:  "Tail latency (99th, incl. loopback) vs offered load",
		XLabel: "offered (Gbps)",
		YLabel: "p99 (µs)",
		Series: []plot.Series{base, cd},
	}
	return p.Render(width, height)
}

// CDFTable renders the Fig 14a CDF of both sides.
func CDFTable(res *NFVLatencyResult, points int) *Table {
	baseCDF := stats.CDF(res.BaseLat, points)
	cdCDF := stats.CDF(res.CDLat, points)
	t := &Table{
		ID:     "F14a",
		Title:  "CDF of DuT latency (µs) — " + res.Kind.String(),
		Header: []string{"F", "DPDK (µs)", "DPDK+CacheDirector (µs)"},
	}
	for i := range baseCDF {
		c := cdCDF[min(i, len(cdCDF)-1)]
		t.Rows = append(t.Rows, []string{f3(baseCDF[i].F), f2(baseCDF[i].X / 1000), f2(c.X / 1000)})
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Table3Result carries the throughput rows.
type Table3Result struct {
	ForwardGbps, ForwardImprovementMbps float64
	ChainGbps, ChainImprovementMbps     float64
}

// Table3From assembles Table 3 from the Figure 13 and 14 results.
func Table3From(f13, f14 *NFVLatencyResult) (*Table3Result, *Table) {
	res := &Table3Result{
		ForwardGbps:            f13.BaseGbps,
		ForwardImprovementMbps: (f13.CDGbps - f13.BaseGbps) * 1000,
		ChainGbps:              f14.BaseGbps,
		ChainImprovementMbps:   (f14.CDGbps - f14.BaseGbps) * 1000,
	}
	t := &Table{
		ID:     "T3",
		Title:  "Throughput at 100 Gbps offered (campus mix) + CacheDirector improvement",
		Header: []string{"Scenario", "Throughput (Gbps)", "Improvement (Mbps)"},
		Rows: [][]string{
			{"Simple Forwarding", f2(res.ForwardGbps), f2(res.ForwardImprovementMbps)},
			{"Router-NAPT-LB (FlowDirector, H/W offload)", f2(res.ChainGbps), f2(res.ChainImprovementMbps)},
		},
		Notes: []string{"paper: 76.58 Gbps (+31.17 Mbps) and 75.94 Gbps (+27.31 Mbps)"},
	}
	return res, t
}

// KneePoint is one Fig 15 sample.
type KneePoint struct {
	OfferedGbps float64
	BaseP99Us   float64 // 99th percentile incl. loopback, µs
	CDP99Us     float64
}

// KneeResult carries the Fig 15 sweep and fits.
type KneeResult struct {
	Points  []KneePoint
	BaseFit stats.PiecewiseFit
	CDFit   stats.PiecewiseFit
}

// Figure15 reproduces Fig 15: 99th-percentile latency (including loopback)
// vs offered load for the stateful chain, with the paper's piecewise
// linear+quadratic fit around the 37 Gbps knee.
func Figure15(env Env) (*KneeResult, *Table, error) {
	rates := []float64{5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85}
	if env.Scale == Quick {
		rates = []float64{5, 15, 25, 35, 45, 55, 65, 72, 78, 85}
	}
	count := env.Scale.pick(8000, 40000)

	// As in latencyCompare, the rate sweep within one side reuses a DuT
	// warm across points; the two sides fan out as independent trials.
	sides, err := runTrials(env, 2, func(trial int) ([]float64, error) {
		setup, err := buildNFV(env, StatefulChain, trial == 1, dpdk.FlowDirector)
		if err != nil {
			return nil, err
		}
		p99s := make([]float64, len(rates))
		for i, rate := range rates {
			g, err := trace.NewCampusMix(env.rng(int64(300+i)), 4096)
			if err != nil {
				return nil, err
			}
			out, err := netsim.RunRate(setup.dut, g, count, rate)
			if err != nil {
				return nil, err
			}
			p99s[i] = (stats.Percentile(out.LatenciesNs, 99) + netsim.MinLoopbackNanos(rate)) / 1000
			setup.dut.Reset()
			setup.dut.Port().ResetStats()
		}
		return p99s, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := &KneeResult{}
	for i, rate := range rates {
		res.Points = append(res.Points, KneePoint{
			OfferedGbps: rate, BaseP99Us: sides[0][i], CDP99Us: sides[1][i],
		})
	}

	xs := make([]float64, len(res.Points))
	bys := make([]float64, len(res.Points))
	cys := make([]float64, len(res.Points))
	for i, p := range res.Points {
		xs[i] = p.OfferedGbps
		bys[i] = p.BaseP99Us
		cys[i] = p.CDP99Us
	}
	res.BaseFit, err = stats.FitPiecewise(xs, bys, 37)
	if err != nil {
		return nil, nil, err
	}
	res.CDFit, err = stats.FitPiecewise(xs, cys, 37)
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		ID:     "F15",
		Title:  "Tail latency (99th, incl. loopback) vs throughput — Router-NAPT-LB, FlowDirector",
		Header: []string{"Offered (Gbps)", "DPDK p99 (µs)", "DPDK+CacheDirector p99 (µs)"},
	}
	for _, p := range res.Points {
		t.Rows = append(t.Rows, []string{f1(p.OfferedGbps), f1(p.BaseP99Us), f1(p.CDP99Us)})
	}
	t.Notes = append(t.Notes,
		"DPDK fit:  "+res.BaseFit.String(),
		"CacheDirector fit:  "+res.CDFit.String())
	return res, t, nil
}
