package experiments

import (
	"fmt"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/kvs"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/slicemem"
	"sliceaware/internal/stats"
	"sliceaware/internal/trace"
	"sliceaware/internal/vmm"
	"sliceaware/internal/zipf"
)

// Extensions beyond the paper's evaluation: the §6/§8 follow-ups the
// authors describe as future work, plus the hardware-prefetcher caveat.

// PrefetchPoint is one cell of the prefetcher interaction study.
type PrefetchPoint struct {
	SliceAware  bool
	Prefetch    bool
	CyclesPerOp float64
}

// AblationPrefetch quantifies §8's prefetching caveat: a sequential sweep
// over a 4 MB array under {normal, slice-aware} × {prefetch off, on}.
// Contiguous layouts profit from the L2 streamer; slice-aware scatter
// defeats it, so with prefetching on, contiguous sequential access can
// beat slice-aware placement.
func AblationPrefetch(scale Scale) ([]PrefetchPoint, *Table, error) {
	const arrayBytes = 2 << 20
	passes := scale.pick(2, 6)

	var out []PrefetchPoint
	for _, sliceAware := range []bool{false, true} {
		for _, prefetch := range []bool{false, true} {
			m, err := cpusim.NewMachine(arch.HaswellE52667v3())
			if err != nil {
				return nil, nil, err
			}
			if prefetch {
				m.EnablePrefetch(cpusim.PrefetchConfig{AdjacentLine: true, Streamer: true, StreamDepth: 4})
			}
			alloc, err := slicemem.New(m.Space, m.LLC.Hash())
			if err != nil {
				return nil, nil, err
			}
			var region *slicemem.Region
			if sliceAware {
				region, err = alloc.AllocLines(0, arrayBytes/64)
			} else {
				region, err = alloc.AllocContiguous(arrayBytes)
			}
			if err != nil {
				return nil, nil, err
			}
			core := m.Core(0)
			lines := region.Lines()
			// One cold pass, then measured sequential passes.
			for _, va := range lines {
				core.Read(va)
			}
			start := core.Cycles()
			for p := 0; p < passes; p++ {
				for _, va := range lines {
					core.Read(va)
				}
			}
			out = append(out, PrefetchPoint{
				SliceAware:  sliceAware,
				Prefetch:    prefetch,
				CyclesPerOp: float64(core.Cycles()-start) / float64(passes*len(lines)),
			})
		}
	}
	t := &Table{
		ID:     "A-PF",
		Title:  "Ablation: hardware prefetching × allocation layout (sequential 2 MB sweep, core 0)",
		Header: []string{"Layout", "Prefetch", "Cycles/access"},
	}
	for _, p := range out {
		layout := "contiguous"
		if p.SliceAware {
			layout = "slice-aware"
		}
		pf := "off"
		if p.Prefetch {
			pf = "on"
		}
		t.Rows = append(t.Rows, []string{layout, pf, f2(p.CyclesPerOp)})
	}
	t.Notes = append(t.Notes, "§8: streaming workloads should prefer contiguous layouts; slice-aware scatter defeats the L2 streamer")
	return out, t, nil
}

// SkylakeCDResult compares CacheDirector's benefit across architectures.
type SkylakeCDResult struct {
	HaswellP99ImprovementUs float64
	SkylakeP99ImprovementUs float64
	HaswellSpeedup          float64
	SkylakeSpeedup          float64
}

// SkylakeCacheDirector reproduces §6's prediction: CacheDirector still
// helps on Skylake (DDIO still fills the LLC) but less than on Haswell,
// because the quadrupled L2 absorbs more of the benefit.
func SkylakeCacheDirector(scale Scale) (*SkylakeCDResult, *Table, error) {
	count := scale.pick(12000, 40000)
	res := &SkylakeCDResult{}

	measure := func(prof *arch.Profile) (impUs, speedup float64, err error) {
		var p99 [2]float64
		for i, withCD := range []bool{false, true} {
			m, err := cpusim.NewMachine(prof)
			if err != nil {
				return 0, 0, err
			}
			port, err := dpdk.NewPort(m, dpdk.PortConfig{
				Queues: 8, RingSize: 1024, PoolMbufs: 4096,
				HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: dpdk.FlowDirector,
			})
			if err != nil {
				return 0, 0, err
			}
			if withCD {
				// 18 slices need a deeper headroom budget than 8; 832 B
				// still covers the common case, misses fall back.
				d, err := cachedirector.New(m, cachedirector.Config{})
				if err != nil {
					return 0, 0, err
				}
				if err := d.Attach(port); err != nil {
					return 0, 0, err
				}
			}
			chain, err := nfv.NewChain("fwd", nfv.NewForwarder())
			if err != nil {
				return 0, 0, err
			}
			dut, err := netsim.NewDuT(netsim.DuTConfig{Machine: m, Port: port, Chain: chain})
			if err != nil {
				return 0, 0, err
			}
			g, err := trace.NewCampusMix(rng(90), 4096)
			if err != nil {
				return 0, 0, err
			}
			out, err := netsim.RunRate(dut, g, count, 100)
			if err != nil {
				return 0, 0, err
			}
			p99[i] = stats.Percentile(out.LatenciesNs, 99)
		}
		return (p99[0] - p99[1]) / 1000, (p99[0] - p99[1]) / p99[0], nil
	}

	var err error
	res.HaswellP99ImprovementUs, res.HaswellSpeedup, err = measure(arch.HaswellE52667v3())
	if err != nil {
		return nil, nil, err
	}
	res.SkylakeP99ImprovementUs, res.SkylakeSpeedup, err = measure(arch.SkylakeGold6134())
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		ID:     "S6",
		Title:  "Extension (§6): CacheDirector p99 improvement, Haswell vs Skylake (forwarding @ 100 Gbps)",
		Header: []string{"Architecture", "p99 improvement (µs)", "Speedup"},
		Rows: [][]string{
			{"Haswell E5-2667 v3", f2(res.HaswellP99ImprovementUs), pct(res.HaswellSpeedup)},
			{"Skylake Gold 6134", f2(res.SkylakeP99ImprovementUs), pct(res.SkylakeSpeedup)},
		},
		Notes: []string{"§6 predicts CacheDirector remains beneficial on Skylake but with lower improvements (larger L2, victim LLC)"},
	}
	return res, t, nil
}

// ValueSizePoint is one cell of the large-value study.
type ValueSizePoint struct {
	ValueBytes int
	GainPct    float64 // slice-aware TPS gain vs normal
}

// LargeValueKVS extends Fig 8 to multi-line values (§8's linked-line
// scatter): the slice-aware gain persists because every line of a hot
// value is homed, at proportionally higher per-request cost.
func LargeValueKVS(scale Scale) ([]ValueSizePoint, *Table, error) {
	keys := uint64(1) << uint(scale.pick(14, 16))
	requests := scale.pick(15000, 60000)

	var out []ValueSizePoint
	for _, vs := range []int{64, 256, 1024} {
		var tps [2]float64
		for i, sliceAware := range []bool{false, true} {
			m, err := cpusim.NewMachine(arch.HaswellE52667v3())
			if err != nil {
				return nil, nil, err
			}
			store, err := kvs.New(m, kvs.Config{Keys: keys, ServingCore: 0, SliceAware: sliceAware, ValueSize: vs})
			if err != nil {
				return nil, nil, err
			}
			gen, err := zipf.NewZipf(rng(21), keys, 0.99)
			if err != nil {
				return nil, nil, err
			}
			if _, err := store.Run(kvs.Workload{GetRatio: 1, Keys: gen, Requests: requests / 2}); err != nil {
				return nil, nil, err
			}
			r, err := store.Run(kvs.Workload{GetRatio: 1, Keys: gen, Requests: requests})
			if err != nil {
				return nil, nil, err
			}
			tps[i] = r.TPSMillions
		}
		out = append(out, ValueSizePoint{ValueBytes: vs, GainPct: (tps[1] - tps[0]) / tps[0] * 100})
	}
	t := &Table{
		ID:     "S8V",
		Title:  "Extension (§8): slice-aware gain vs value size (skewed 100% GET)",
		Header: []string{"Value size", "Slice-aware TPS gain"},
	}
	for _, p := range out {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d B", p.ValueBytes), pct(p.GainPct / 100)})
	}
	return out, t, nil
}

// MigrationResultRow summarizes the hot-data migration study.
type MigrationResultRow struct {
	BeforeCycles float64
	AfterCycles  float64
	Migrated     int
	CopyCycles   uint64
}

// HotMigration demonstrates §8's monitoring/migration recommendation: the
// workload's hot set shifts away from the statically-homed prefix, an
// epoch of counting finds the new hot keys, and migration restores the
// slice-aware advantage.
func HotMigration(scale Scale) (*MigrationResultRow, *Table, error) {
	keys := uint64(1) << 14
	requests := scale.pick(12000, 40000)

	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, nil, err
	}
	store, err := kvs.New(m, kvs.Config{Keys: keys, ServingCore: 0, SliceAware: true, HotLines: 2048})
	if err != nil {
		return nil, nil, err
	}
	store.EnableHotTracking()

	shifted := func(seed int64) (zipf.Generator, error) {
		g, err := zipf.NewZipf(rng(seed), 4096, 0.99)
		if err != nil {
			return nil, err
		}
		return shiftGen{g, 8192}, nil
	}
	g, err := shifted(30)
	if err != nil {
		return nil, nil, err
	}
	before, err := store.Run(kvs.Workload{GetRatio: 1, Keys: g, Requests: requests})
	if err != nil {
		return nil, nil, err
	}
	mig, err := store.MigrateTopK(1024)
	if err != nil {
		return nil, nil, err
	}
	g2, err := shifted(30)
	if err != nil {
		return nil, nil, err
	}
	after, err := store.Run(kvs.Workload{GetRatio: 1, Keys: g2, Requests: requests})
	if err != nil {
		return nil, nil, err
	}

	res := &MigrationResultRow{
		BeforeCycles: before.CyclesPerReq,
		AfterCycles:  after.CyclesPerReq,
		Migrated:     mig.Migrated,
		CopyCycles:   mig.Cycles,
	}
	t := &Table{
		ID:     "S8M",
		Title:  "Extension (§8): hot-data migration after a working-set shift",
		Header: []string{"Cycles/req before", "Cycles/req after", "Keys migrated", "Copy cost (cycles)"},
		Rows: [][]string{{
			f1(res.BeforeCycles), f1(res.AfterCycles), fmt.Sprintf("%d", res.Migrated), fmt.Sprintf("%d", res.CopyCycles),
		}},
	}
	return res, t, nil
}

// OffsetTargetRow is one configuration of the VXLAN/DPI offset study.
type OffsetTargetRow struct {
	Config string
	P99Us  float64
	MeanUs float64
}

// OffsetTarget demonstrates §4.2's configurable placement target: a
// tunnel-inspection NF whose hot line is the *inner* header at +128 B.
// Default CacheDirector (placing the first 64 B) buys nothing; configuring
// TargetOffset=128 recovers the full benefit.
func OffsetTarget(scale Scale) ([]OffsetTargetRow, *Table, error) {
	count := scale.pick(12000, 40000)
	configs := []struct {
		name   string
		cd     bool
		offset int
	}{
		{"no CacheDirector", false, 0},
		{"CacheDirector, default target (+0)", true, 0},
		{"CacheDirector, TargetOffset=128", true, 128},
	}
	var out []OffsetTargetRow
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
		if c.cd {
			d, err := cachedirector.New(m, cachedirector.Config{TargetOffset: c.offset})
			if err != nil {
				return nil, nil, err
			}
			if err := d.Attach(port); err != nil {
				return nil, nil, err
			}
		}
		ti, err := nfv.NewTunnelInspector(128)
		if err != nil {
			return nil, nil, err
		}
		chain, err := nfv.NewChain("tunnel", ti)
		if err != nil {
			return nil, nil, err
		}
		dut, err := netsim.NewDuT(netsim.DuTConfig{Machine: m, Port: port, Chain: chain})
		if err != nil {
			return nil, nil, err
		}
		g, err := trace.NewFixedSize(rng(91), 512, 4096)
		if err != nil {
			return nil, nil, err
		}
		res, err := netsim.RunRate(dut, g, count, 54)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, OffsetTargetRow{
			Config: c.name,
			P99Us:  stats.Percentile(res.LatenciesNs, 99) / 1000,
			MeanUs: stats.Mean(res.LatenciesNs) / 1000,
		})
	}
	t := &Table{
		ID:     "S4V",
		Title:  "Extension (§4.2): configurable placement target — tunnel NF inspecting the inner header at +128 B (512 B frames @ 54 Gbps, ρ≈0.97)",
		Header: []string{"Configuration", "p99 (µs)", "mean (µs)"},
	}
	for _, r := range out {
		t.Rows = append(t.Rows, []string{r.Config, f1(r.P99Us), f1(r.MeanUs)})
	}
	t.Notes = append(t.Notes, "targeting the inspected offset beats the default first-line placement for NFs that skip the outer header")
	return out, t, nil
}

// SharedPlacementRow is one placement of the shared-data study.
type SharedPlacementRow struct {
	Placement   string
	CoreACycles float64 // cycles/op for core 0
	CoreBCycles float64 // cycles/op for core 3
	WorstCycles float64
}

// SharedDataPlacement quantifies §8's multi-threaded guidance: a structure
// read by two cores should live in a compromise slice, not either core's
// primary. Cores 0 and 3 (ring positions with no common near slice)
// alternate random reads over a shared 512 KB region placed three ways.
func SharedDataPlacement(scale Scale) ([]SharedPlacementRow, *Table, error) {
	const wsBytes = 512 << 10
	ops := scale.pick(4000, 12000)
	coreA, coreB := 0, 3

	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, nil, err
	}
	alloc, err := slicemem.New(m.Space, m.LLC.Hash())
	if err != nil {
		return nil, nil, err
	}
	compromise, err := slicemem.CompromiseSlice(m.Topo, []int{coreA, coreB})
	if err != nil {
		return nil, nil, err
	}
	placements := []struct {
		name  string
		slice int
	}{
		{fmt.Sprintf("core %d's primary (S%d)", coreA, coreA), coreA},
		{fmt.Sprintf("core %d's primary (S%d)", coreB, coreB), coreB},
		{fmt.Sprintf("compromise (S%d)", compromise), compromise},
	}

	var out []SharedPlacementRow
	for _, p := range placements {
		region, err := alloc.AllocBytes(p.slice, wsBytes)
		if err != nil {
			return nil, nil, err
		}
		lines := region.Lines()
		m.ResetCaches()
		a, b := m.Core(coreA), m.Core(coreB)
		// Warm from both sides.
		for _, va := range lines {
			a.Read(va)
		}
		for _, va := range lines {
			b.Read(va)
		}
		rngA := rng(41)
		rngB := rng(42)
		startA, startB := a.Cycles(), b.Cycles()
		for i := 0; i < ops; i++ {
			a.Read(lines[rngA.Intn(len(lines))])
			b.Read(lines[rngB.Intn(len(lines))])
		}
		row := SharedPlacementRow{
			Placement:   p.name,
			CoreACycles: float64(a.Cycles()-startA) / float64(ops),
			CoreBCycles: float64(b.Cycles()-startB) / float64(ops),
		}
		row.WorstCycles = row.CoreACycles
		if row.CoreBCycles > row.WorstCycles {
			row.WorstCycles = row.CoreBCycles
		}
		out = append(out, row)
		alloc.Free(region)
	}

	t := &Table{
		ID:     "S8S",
		Title:  "Extension (§8): shared-data placement for cores 0 and 3 (512 KB, random reads)",
		Header: []string{"Placement", "Core 0 cycles/op", "Core 3 cycles/op", "Worst"},
	}
	for _, r := range out {
		t.Rows = append(t.Rows, []string{r.Placement, f1(r.CoreACycles), f1(r.CoreBCycles), f1(r.WorstCycles)})
	}
	t.Notes = append(t.Notes, "the compromise slice minimizes the slower thread's cost (§8's multi-threaded guidance)")
	return out, t, nil
}

// VMIsolationRow is one VM's outcome under one policy.
type VMIsolationRow struct {
	Policy      string
	VM          string
	CyclesPerOp float64
}

// VMIsolation demonstrates §7's hypervisor extension: a quiet guest and a
// streaming noisy guest under shared vs slice-isolated placement, on the
// Skylake part (whose 18 slices leave room to carve per-VM slice sets).
func VMIsolation(scale Scale) ([]VMIsolationRow, *Table, error) {
	ops := scale.pick(6000, 20000)
	var out []VMIsolationRow
	for _, policy := range []vmm.Policy{vmm.Shared, vmm.SliceIsolated} {
		m, err := cpusim.NewMachine(arch.SkylakeGold6134())
		if err != nil {
			return nil, nil, err
		}
		h, err := vmm.New(m, policy)
		if err != nil {
			return nil, nil, err
		}
		if _, err := h.AddVM(vmm.VMConfig{Name: "quiet", Core: 0, WorkingSet: 3 << 20}); err != nil {
			return nil, nil, err
		}
		if _, err := h.AddVM(vmm.VMConfig{Name: "noisy", Core: 4, WorkingSet: 64 << 20, Noisy: true}); err != nil {
			return nil, nil, err
		}
		h.Warmup()
		res, err := h.Run(ops)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range res {
			out = append(out, VMIsolationRow{Policy: policy.String(), VM: r.Name, CyclesPerOp: r.CyclesPerOp})
		}
	}
	t := &Table{
		ID:     "S7H",
		Title:  "Extension (§7): hypervisor slice isolation — quiet VM beside a streaming noisy VM (Gold 6134)",
		Header: []string{"Policy", "VM", "Cycles/op"},
	}
	for _, r := range out {
		t.Rows = append(t.Rows, []string{r.Policy, r.VM, f1(r.CyclesPerOp)})
	}
	t.Notes = append(t.Notes, "slice-isolated placement shields the quiet guest from the neighbour's LLC pollution")
	return out, t, nil
}

// shiftGen offsets a rank generator into a different key range.
type shiftGen struct {
	inner  zipf.Generator
	offset uint64
}

func (s shiftGen) Next() uint64 { return s.inner.Next() + s.offset }
func (s shiftGen) N() uint64    { return s.inner.N() + s.offset }

// PageColoringDemo shows the §9 point quantitatively: page coloring
// cannot partition a Complex-Addressed LLC — a single color's lines still
// spread over every slice — while slice-aware allocation pins them.
func PageColoringDemo() (*Table, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, err
	}
	alloc, err := slicemem.New(m.Space, m.LLC.Hash())
	if err != nil {
		return nil, err
	}
	pc, err := slicemem.NewPageColorAllocator(alloc, 32)
	if err != nil {
		return nil, err
	}
	pages, err := pc.AllocPages(0, 16)
	if err != nil {
		return nil, err
	}
	spread, err := pc.SliceSpread(pages)
	if err != nil {
		return nil, err
	}
	region, err := alloc.AllocLines(0, 16*4096/64)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "S9C",
		Title:  "Extension (§9): page coloring vs slice-aware allocation (64 kB, Haswell)",
		Header: []string{"Allocator", "Distinct LLC slices touched"},
		Rows: [][]string{
			{"page coloring (1 of 32 colors)", fmt.Sprintf("%d of 8", spread)},
			{"slice-aware (slice 0)", fmt.Sprintf("%d of 8", len(region.Slices()))},
		},
		Notes: []string{"Complex Addressing changes slice per line, so page-granular coloring cannot isolate the LLC (§9)"},
	}
	return t, nil
}
