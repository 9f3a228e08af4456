package experiments

import (
	"fmt"
	"math/rand"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/slicemem"
)

// Table1 reproduces Table 1: the cache geometry of the Xeon E5-2667 v3.
func Table1() *Table {
	p := arch.HaswellE52667v3()
	row := func(name string, g arch.CacheGeometry) []string {
		hi, lo := g.IndexBits()
		return []string{
			name,
			fmt.Sprintf("%d kB", g.SizeBytes>>10),
			fmt.Sprintf("%d", g.Ways),
			fmt.Sprintf("%d", g.Sets()),
			fmt.Sprintf("%d-%d", hi, lo),
		}
	}
	return &Table{
		ID:     "T1",
		Title:  p.Name + " — Cache Specification",
		Header: []string{"Cache Level", "Size", "#Ways", "#Sets", "Index-bits[range]"},
		Rows: [][]string{
			row("LLC-Slice", p.LLCSlice),
			row("L2", p.L2),
			row("L1", p.L1D),
		},
	}
}

// AccessTimeResult carries Fig 5's per-slice access cycles from one core.
type AccessTimeResult struct {
	ReadCycles  []float64 // per slice
	WriteCycles []float64 // per slice
}

// Figure5 reproduces Fig 5: cycles to read/write cache lines resident in
// each LLC slice, measured from core 0 with the §2.2 methodology — fill
// one LLC set of the target slice with 20 lines, flush, re-load, then time
// accesses to the 8 lines that no longer live in L1/L2.
func Figure5(env Env) (*AccessTimeResult, *Table, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, nil, err
	}
	return figure5On(m, 0, env.Scale.pick(100, 1000))
}

func figure5On(m *cpusim.Machine, coreID, reps int) (*AccessTimeResult, *Table, error) {
	p := m.Profile
	core := m.Core(coreID)
	page, err := m.Space.MapHugepage1G()
	if err != nil {
		return nil, nil, err
	}

	res := &AccessTimeResult{
		ReadCycles:  make([]float64, p.Slices),
		WriteCycles: make([]float64, p.Slices),
	}
	ways := p.LLCSlice.Ways
	l1ways := p.L1D.Ways
	setStride := uint64(p.LLCSlice.Sets() * 64)

	for slice := 0; slice < p.Slices; slice++ {
		// Select `ways` lines of the target slice that share one LLC set
		// (and hence one L1/L2 set — the index bits nest).
		var lines []uint64
		for a := page.PhysBase; len(lines) < ways && a < page.PhysBase+page.Size; a += setStride {
			if m.LLC.SliceOf(a) == slice {
				lines = append(lines, a)
			}
		}
		if len(lines) < ways {
			return nil, nil, fmt.Errorf("experiments: only %d same-set lines for slice %d", len(lines), slice)
		}

		var readSum, writeSum float64
		for r := 0; r < reps; r++ {
			// Write a value into every line, flush the hierarchy, then
			// re-read all of them: the last l1ways stay in L1/L2, the
			// first ones remain only in the target LLC slice.
			for _, pa := range lines {
				core.WritePhys(pa)
			}
			for _, pa := range lines {
				core.FlushPhys(pa)
			}
			for _, pa := range lines {
				core.ReadPhys(pa)
			}
			var cycles uint64
			for i := 0; i < l1ways; i++ {
				cycles += core.ReadPhys(lines[i])
			}
			// The paper's pointer-array caveat: each probe dereferences a
			// pointer slot first, adding one L1 access.
			readSum += float64(cycles)/float64(l1ways) + float64(p.L1Latency)

			// Write timing: stores retire through L1 (write-back), so
			// first make the lines L1-resident, then time the stores.
			var wcycles uint64
			for i := 0; i < l1ways; i++ {
				core.ReadPhys(lines[i])
			}
			for i := 0; i < l1ways; i++ {
				wcycles += core.WritePhys(lines[i])
			}
			writeSum += float64(wcycles)/float64(l1ways) + float64(p.L1Latency)
		}
		res.ReadCycles[slice] = readSum / float64(reps)
		res.WriteCycles[slice] = writeSum / float64(reps)
	}

	t := &Table{
		ID:     "F5",
		Title:  fmt.Sprintf("Access time from core %d to each LLC slice (%s)", coreID, p.Name),
		Header: []string{"Slice", "Read (cycles)", "Write (cycles)"},
	}
	for s := 0; s < p.Slices; s++ {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", s), f1(res.ReadCycles[s]), f1(res.WriteCycles[s])})
	}
	t.Notes = append(t.Notes,
		"reads are bimodal (same-parity ring stops are closer); writes are flat (write-back retires in L1)")
	return res, t, nil
}

// SpeedupResult carries Fig 6's per-slice speedups.
type SpeedupResult struct {
	ReadSpeedup   []float64 // percent vs normal allocation, per slice
	WriteSpeedup  []float64
	NormalReadMs  float64 // baseline execution times
	NormalWriteMs float64
}

// Figure6 reproduces Fig 6: average speedup of slice-aware memory
// management over normal allocation, per target slice, for a 1.375 MB
// working set accessed 10 000 times uniformly at random from core 0.
func Figure6(env Env) (*SpeedupResult, *Table, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, nil, err
	}
	p := m.Profile
	const wsBytes = 1408 << 10 // 1.375 MB: half a slice plus the L2 (§3)
	ops := env.Scale.pick(4000, 10000)
	runs := env.Scale.pick(3, 20)
	core := m.Core(0)

	alloc, err := slicemem.New(m.Space, m.LLC.Hash())
	if err != nil {
		return nil, nil, err
	}

	measure := func(lines []uint64, write bool, seed int64) float64 {
		m.ResetCaches()
		// Two warm sweeps reach steady state, as repeated runs do on the
		// real machine.
		for pass := 0; pass < 2; pass++ {
			for _, va := range lines {
				core.Read(va)
			}
		}
		rng := env.rng(seed)
		start := core.Cycles()
		for i := 0; i < ops; i++ {
			va := lines[rng.Intn(len(lines))]
			if write {
				core.Write(va)
			} else {
				core.Read(va)
			}
		}
		return float64(core.Cycles() - start)
	}

	normal, err := alloc.AllocContiguous(wsBytes)
	if err != nil {
		return nil, nil, err
	}
	res := &SpeedupResult{
		ReadSpeedup:  make([]float64, p.Slices),
		WriteSpeedup: make([]float64, p.Slices),
	}
	var normRead, normWrite float64
	for r := 0; r < runs; r++ {
		normRead += measure(normal.Lines(), false, int64(1000+r))
		normWrite += measure(normal.Lines(), true, int64(1000+r))
	}
	normRead /= float64(runs)
	normWrite /= float64(runs)
	res.NormalReadMs = normRead / p.FrequencyHz * 1e3
	res.NormalWriteMs = normWrite / p.FrequencyHz * 1e3

	for s := 0; s < p.Slices; s++ {
		region, err := alloc.AllocLines(s, wsBytes/64)
		if err != nil {
			return nil, nil, err
		}
		var rSum, wSum float64
		for r := 0; r < runs; r++ {
			rSum += measure(region.Lines(), false, int64(1000+r))
			wSum += measure(region.Lines(), true, int64(1000+r))
		}
		rSum /= float64(runs)
		wSum /= float64(runs)
		res.ReadSpeedup[s] = (normRead - rSum) / normRead * 100
		res.WriteSpeedup[s] = (normWrite - wSum) / normWrite * 100
		alloc.Free(region)
	}

	t := &Table{
		ID:     "F6",
		Title:  "Speedup of slice-aware vs normal allocation from core 0 (1.375 MB working set)",
		Header: []string{"Slice", "Read speedup", "Write speedup"},
	}
	for s := 0; s < p.Slices; s++ {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", s), pct(res.ReadSpeedup[s] / 100), pct(res.WriteSpeedup[s] / 100)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("normal-allocation baselines: read %.2f ms, write %.2f ms for %d ops×%d runs", res.NormalReadMs, res.NormalWriteMs, ops, runs))
	return res, t, nil
}

// OPSResult carries Fig 7's throughput series.
type OPSResult struct {
	Sizes           []int     // array bytes per core
	NormalReadMOPS  []float64 // million operations/s, all 8 cores
	SliceReadMOPS   []float64
	NormalWriteMOPS []float64
	SliceWriteMOPS  []float64
}

// Figure7 reproduces Fig 7: aggregate operations per second of 8 cores
// accessing per-core arrays of growing size, slice-aware (each core's
// array homed to its closest slice) vs normal allocation.
func Figure7(env Env) (*OPSResult, *Table, error) {
	sizes := []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10,
		1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20}
	if env.Scale == Quick {
		sizes = []int{32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20, 32 << 20}
	}
	ops := env.Scale.pick(2000, 10000)

	res := &OPSResult{Sizes: sizes}
	for _, size := range sizes {
		nr, sr, nw, sw, err := figure7Point(env, size, ops)
		if err != nil {
			return nil, nil, err
		}
		res.NormalReadMOPS = append(res.NormalReadMOPS, nr)
		res.SliceReadMOPS = append(res.SliceReadMOPS, sr)
		res.NormalWriteMOPS = append(res.NormalWriteMOPS, nw)
		res.SliceWriteMOPS = append(res.SliceWriteMOPS, sw)
	}

	t := &Table{
		ID:     "F7",
		Title:  "Aggregate MOPS of 8 cores vs per-core array size (slice-aware = closest slice)",
		Header: []string{"Array", "Read normal", "Read slice", "Write normal", "Write slice"},
	}
	for i, size := range sizes {
		t.Rows = append(t.Rows, []string{
			sizeLabel(size),
			f1(res.NormalReadMOPS[i]), f1(res.SliceReadMOPS[i]),
			f1(res.NormalWriteMOPS[i]), f1(res.SliceWriteMOPS[i]),
		})
	}
	t.Notes = append(t.Notes, "slice-aware wins while the per-core working set fits its slice (≤2.5 MB); both collapse to DRAM beyond the LLC")
	return res, t, nil
}

func figure7Point(env Env, size, ops int) (normalRead, sliceRead, normalWrite, sliceWrite float64, err error) {
	for _, sliceAware := range []bool{false, true} {
		m, err := cpusim.NewMachine(arch.HaswellE52667v3())
		if err != nil {
			return 0, 0, 0, 0, err
		}
		alloc, err := slicemem.New(m.Space, m.LLC.Hash())
		if err != nil {
			return 0, 0, 0, 0, err
		}
		arrays := make([][]uint64, m.Cores())
		for c := range arrays {
			var region *slicemem.Region
			if sliceAware {
				region, err = alloc.AllocLines(c, size/64)
			} else {
				region, err = alloc.AllocContiguous(size)
			}
			if err != nil {
				return 0, 0, 0, 0, err
			}
			arrays[c] = region.Lines()
		}
		// Warm: sweep the arrays interleaved across cores (as concurrent
		// cores would), so no core's array is unfairly LLC-resident at
		// measurement start.
		if size <= m.Profile.LLCTotalBytes() {
			for i := 0; i < size/64; i++ {
				for c := range arrays {
					m.Core(c).Read(arrays[c][i])
				}
			}
		}
		read := figure7MOPS(env, m, arrays, ops, false, 7000)
		write := figure7MOPS(env, m, arrays, ops, true, 8100)
		if sliceAware {
			sliceRead, sliceWrite = read, write
		} else {
			normalRead, normalWrite = read, write
		}
	}
	return normalRead, sliceRead, normalWrite, sliceWrite, nil
}

// figure7MOPS interleaves ops random accesses across all cores (round-
// robin, approximating concurrent execution against the shared LLC) and
// returns aggregate MOPS.
func figure7MOPS(env Env, m *cpusim.Machine, arrays [][]uint64, ops int, write bool, seed int64) float64 {
	rngs := make([]*rand.Rand, len(arrays))
	starts := make([]uint64, len(arrays))
	for c := range arrays {
		rngs[c] = env.rng(seed + int64(c))
		starts[c] = m.Core(c).Cycles()
	}
	for i := 0; i < ops; i++ {
		for c, lines := range arrays {
			va := lines[rngs[c].Intn(len(lines))]
			if write {
				m.Core(c).Write(va)
			} else {
				m.Core(c).Read(va)
			}
		}
	}
	total := 0.0
	for c := range arrays {
		cycles := float64(m.Core(c).Cycles() - starts[c])
		total += float64(ops) / (cycles / m.Profile.FrequencyHz)
	}
	return total / 1e6
}

func sizeLabel(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
