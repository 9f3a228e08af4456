package experiments

import (
	"fmt"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cachesim"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/slicemem"
	"sliceaware/internal/stats"
	"sliceaware/internal/trace"
)

// Ablations quantify the design choices DESIGN.md §5 calls out. Each
// returns a small result struct and a printable table.

// DDIOWaysPoint is one DDIO-budget configuration's outcome.
type DDIOWaysPoint struct {
	Ways     int
	P99Us    float64
	MeanUs   float64
	DDIOEvic uint64 // lines evicted from LLC during the run
}

// AblationDDIOWays sweeps the number of LLC ways DDIO may fill (default 2
// of 20 — the 10 % limit of §5.2/§8) and reports its effect on forwarding
// tail latency under the campus mix at 100 Gbps.
func AblationDDIOWays(env Env) ([]DDIOWaysPoint, *Table, error) {
	count := env.Scale.pick(12000, 40000)
	var out []DDIOWaysPoint
	for _, ways := range []int{1, 2, 4, 8} {
		setup, err := buildNFV(env, ForwardingChain, true, dpdk.RSS)
		if err != nil {
			return nil, nil, err
		}
		setup.machine.LLC.SetDDIOWays(ways)
		g, err := trace.NewCampusMix(env.rng(77), 4096)
		if err != nil {
			return nil, nil, err
		}
		res, err := netsim.RunRate(setup.dut, g, count, 100)
		if err != nil {
			return nil, nil, err
		}
		var evic uint64
		for _, ev := range setup.machine.LLC.AllEvents() {
			evic += ev.Evictions
		}
		out = append(out, DDIOWaysPoint{
			Ways:     ways,
			P99Us:    stats.Percentile(res.LatenciesNs, 99) / 1000,
			MeanUs:   stats.Mean(res.LatenciesNs) / 1000,
			DDIOEvic: evic,
		})
	}
	t := &Table{
		ID:     "A-DDIO",
		Title:  "Ablation: DDIO way budget (forwarding, campus mix @ 100 Gbps, CacheDirector on)",
		Header: []string{"DDIO ways", "p99 (µs)", "mean (µs)", "LLC evictions"},
	}
	for _, p := range out {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Ways), f1(p.P99Us), f1(p.MeanUs), fmt.Sprintf("%d", p.DDIOEvic),
		})
	}
	return out, t, nil
}

// PlacementPoint compares CacheDirector placement policies.
type PlacementPoint struct {
	Policy string
	P99Us  float64
	MeanUs float64
}

// AblationPlacement compares three CacheDirector configurations on the
// stateful chain: primary-slice pinning (the paper's default), spreading
// over the primary+secondary tier (§8's eviction-dilution idea), and
// application-sorted mempools (no per-packet driver cost).
func AblationPlacement(env Env) ([]PlacementPoint, *Table, error) {
	count := env.Scale.pick(12000, 40000)
	configs := []struct {
		name string
		cfg  *cachedirector.Config // nil = no CacheDirector
	}{
		{"no CacheDirector", nil},
		{"primary slice", &cachedirector.Config{}},
		{"primary+secondary tier", &cachedirector.Config{SpreadTier: true}},
		{"app-sorted mempools", &cachedirector.Config{AppSorted: true}},
	}
	var out []PlacementPoint
	for _, c := range configs {
		m, err := cpusim.NewMachine(arch.HaswellE52667v3())
		if err != nil {
			return nil, nil, err
		}
		port, err := dpdk.NewPort(m, dpdk.PortConfig{
			Queues: 8, RingSize: 1024, PoolMbufs: 4096,
			HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: dpdk.FlowDirector,
		})
		if err != nil {
			return nil, nil, err
		}
		if c.cfg != nil {
			d, err := cachedirector.New(m, *c.cfg)
			if err != nil {
				return nil, nil, err
			}
			if err := d.Attach(port); err != nil {
				return nil, nil, err
			}
		}
		chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
		if err != nil {
			return nil, nil, err
		}
		dut, err := netsim.NewDuT(netsim.DuTConfig{Machine: m, Port: port, Chain: chain})
		if err != nil {
			return nil, nil, err
		}
		g, err := trace.NewCampusMix(env.rng(78), 4096)
		if err != nil {
			return nil, nil, err
		}
		res, err := netsim.RunRate(dut, g, count, 100)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, PlacementPoint{
			Policy: c.name,
			P99Us:  stats.Percentile(res.LatenciesNs, 99) / 1000,
			MeanUs: stats.Mean(res.LatenciesNs) / 1000,
		})
	}
	t := &Table{
		ID:     "A-PLACE",
		Title:  "Ablation: CacheDirector placement policy (forwarding @ 100 Gbps, FlowDirector)",
		Header: []string{"Policy", "p99 (µs)", "mean (µs)"},
	}
	for _, p := range out {
		t.Rows = append(t.Rows, []string{p.Policy, f1(p.P99Us), f1(p.MeanUs)})
	}
	return out, t, nil
}

// SteeringPoint compares NIC steering modes for the stateful chain.
type SteeringPoint struct {
	Steering dpdk.Steering
	P99Us    float64
	MeanUs   float64
	Spread   int // max-min packets across queues
}

// AblationSteering reruns the stateful chain under RSS and FlowDirector —
// the §5.2 observation that FlowDirector's balance changes where
// CacheDirector's improvement lands.
func AblationSteering(env Env) ([]SteeringPoint, *Table, error) {
	count := env.Scale.pick(12000, 40000)
	var out []SteeringPoint
	for _, steering := range []dpdk.Steering{dpdk.RSS, dpdk.FlowDirector} {
		setup, err := buildNFV(env, StatefulChain, true, steering)
		if err != nil {
			return nil, nil, err
		}
		g, err := trace.NewCampusMix(env.rng(79), 4096)
		if err != nil {
			return nil, nil, err
		}
		// Count per-queue load during the run.
		gcount := &countingGen{inner: g, port: setup.dut.Port(), perQueue: make([]int, 8)}
		res, err := netsim.RunRate(setup.dut, gcount, count, 100)
		if err != nil {
			return nil, nil, err
		}
		mn, mx := gcount.perQueue[0], gcount.perQueue[0]
		for _, n := range gcount.perQueue {
			if n < mn {
				mn = n
			}
			if n > mx {
				mx = n
			}
		}
		out = append(out, SteeringPoint{
			Steering: steering,
			P99Us:    stats.Percentile(res.LatenciesNs, 99) / 1000,
			MeanUs:   stats.Mean(res.LatenciesNs) / 1000,
			Spread:   mx - mn,
		})
	}
	t := &Table{
		ID:     "A-STEER",
		Title:  "Ablation: RSS vs FlowDirector (stateful chain @ 100 Gbps, CacheDirector on)",
		Header: []string{"Steering", "p99 (µs)", "mean (µs)", "queue-load spread (pkts)"},
	}
	for _, p := range out {
		t.Rows = append(t.Rows, []string{p.Steering.String(), f1(p.P99Us), f1(p.MeanUs), fmt.Sprintf("%d", p.Spread)})
	}
	return out, t, nil
}

// countingGen wraps a generator and tallies where each packet would steer.
type countingGen struct {
	inner    trace.Generator
	port     *dpdk.Port
	perQueue []int
}

func (c *countingGen) Next() trace.Packet {
	p := c.inner.Next()
	c.perQueue[c.port.SteerQueue(p)]++
	return p
}

// ReplacementPoint is one LLC-replacement-policy configuration.
type ReplacementPoint struct {
	Policy cachesim.Policy
	P99Us  float64
	MeanUs float64
}

// AblationReplacement reruns the forwarding experiment with the LLC under
// LRU vs bimodal-insertion policies (§2 notes real parts vary their LRU).
// BIP/LIP resist the DDIO packet stream's flush-through, trading tail
// latency for working-set retention.
func AblationReplacement(env Env) ([]ReplacementPoint, *Table, error) {
	count := env.Scale.pick(12000, 40000)
	var out []ReplacementPoint
	for _, policy := range []cachesim.Policy{cachesim.LRU, cachesim.BIP, cachesim.LIP} {
		setup, err := buildNFV(env, ForwardingChain, true, dpdk.RSS)
		if err != nil {
			return nil, nil, err
		}
		if err := setup.machine.LLC.SetPolicy(policy); err != nil {
			return nil, nil, err
		}
		g, err := trace.NewCampusMix(env.rng(81), 4096)
		if err != nil {
			return nil, nil, err
		}
		res, err := netsim.RunRate(setup.dut, g, count, 100)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, ReplacementPoint{
			Policy: policy,
			P99Us:  stats.Percentile(res.LatenciesNs, 99) / 1000,
			MeanUs: stats.Mean(res.LatenciesNs) / 1000,
		})
	}
	t := &Table{
		ID:     "A-RP",
		Title:  "Ablation: LLC replacement policy (forwarding @ 100 Gbps, CacheDirector on)",
		Header: []string{"Policy", "p99 (µs)", "mean (µs)"},
	}
	for _, p := range out {
		t.Rows = append(t.Rows, []string{p.Policy.String(), f1(p.P99Us), f1(p.MeanUs)})
	}
	t.Notes = append(t.Notes,
		"near-identical columns are the expected result: the DDIO way mask already confines the packet stream, so scan-resistant insertion has little left to protect")
	return out, t, nil
}

// MultiSlicePoint is one multi-slice allocation configuration.
type MultiSlicePoint struct {
	Slices  int
	Speedup float64 // vs normal allocation, percent
}

// AblationMultiSlice extends Fig 6: allocate core 0's working set over its
// K cheapest slices (K=1,2,4) and compare speedups — trading latency for
// eviction headroom as §8 recommends when one slice is too hot.
func AblationMultiSlice(env Env) ([]MultiSlicePoint, *Table, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, nil, err
	}
	alloc, err := slicemem.New(m.Space, m.LLC.Hash())
	if err != nil {
		return nil, nil, err
	}
	core := m.Core(0)
	const wsBytes = 1408 << 10
	ops := env.Scale.pick(4000, 10000)
	order := slicemem.PreferredSlices(m.Topo, 0)

	measure := func(lines []uint64) float64 {
		m.ResetCaches()
		for pass := 0; pass < 2; pass++ {
			for _, va := range lines {
				core.Read(va)
			}
		}
		rng := env.rng(5)
		start := core.Cycles()
		for i := 0; i < ops; i++ {
			core.Read(lines[rng.Intn(len(lines))])
		}
		return float64(core.Cycles() - start)
	}

	normal, err := alloc.AllocContiguous(wsBytes)
	if err != nil {
		return nil, nil, err
	}
	base := measure(normal.Lines())

	var out []MultiSlicePoint
	for _, k := range []int{1, 2, 4} {
		region, err := alloc.AllocLinesMulti(order[:k], wsBytes/64)
		if err != nil {
			return nil, nil, err
		}
		cycles := measure(region.Lines())
		out = append(out, MultiSlicePoint{
			Slices:  k,
			Speedup: (base - cycles) / base * 100,
		})
		alloc.Free(region)
	}
	t := &Table{
		ID:     "A-MULTI",
		Title:  "Ablation: allocating over the K cheapest slices (1.375 MB working set, core 0)",
		Header: []string{"K slices", "Speedup vs normal"},
	}
	for _, p := range out {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", p.Slices), pct(p.Speedup / 100)})
	}
	t.Notes = append(t.Notes, "more slices dilute per-slice eviction pressure at the cost of average latency (§8)")
	return out, t, nil
}
