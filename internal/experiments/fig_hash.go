package experiments

import (
	"fmt"
	"strings"

	"sliceaware/internal/arch"
	"sliceaware/internal/chash"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/interconnect"
	"sliceaware/internal/reveng"
)

// HashRecoveryResult carries Fig 4's outcome.
type HashRecoveryResult struct {
	Recovered *reveng.RecoveredHash
	Truth     *chash.XORHash
	Match     bool
}

// Figure4 reproduces Fig 4: reverse-engineer the Complex Addressing hash
// of the 8-slice Haswell with polling + single-bit flips, then verify it
// equals the planted ground truth over every hashed address bit.
func Figure4(env Env) (*HashRecoveryResult, *Table, error) {
	truth := chash.Haswell8()
	// 512 GB of simulated DRAM so probes can flip every hashed bit.
	m, err := cpusim.NewMachineWithHashAndMemory(arch.HaswellE52667v3(), truth, 512<<30)
	if err != nil {
		return nil, nil, err
	}
	p := reveng.NewProber(m, 0)
	p.SetPolls(env.Scale.pick(4, reveng.DefaultPolls))
	rec, err := reveng.RecoverXORHash(p, 8, chash.AddressBits, env.rng(4))
	if err != nil {
		return nil, nil, err
	}
	res := &HashRecoveryResult{Recovered: rec, Truth: truth, Match: rec.Hash.Equal(truth)}

	t := &Table{
		ID:     "F4",
		Title:  "Reverse-engineered Complex Addressing matrix (Xeon E5-2667 v3, 8 slices)",
		Header: []string{"Output", "Physical-address bits (6..38)"},
	}
	for o, row := range rec.Hash.Matrix() {
		var b strings.Builder
		for bit := 6; bit < chash.AddressBits; bit++ {
			if row[bit] {
				b.WriteString("X")
			} else {
				b.WriteString(".")
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("o%d", o), b.String()})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("recovered == ground truth: %v; verification %d/%d addresses; covered bits %d..%d",
			res.Match, rec.Verified, rec.Checked, rec.CoveredBits[0], rec.CoveredBits[len(rec.CoveredBits)-1]))
	return res, t, nil
}

// Figure16 reproduces Fig 16: access time from core 0 to each of the 18
// Skylake slices. Slices are identified by polling alone (the generalized
// hash is not linear, so the Fig 4 matrix construction does not apply —
// exactly the paper's situation on the Gold 6134), and because the Skylake
// LLC is a victim cache, target lines are planted in it by loading them on
// a helper core and evicting them from that core's L2 with set conflicts.
func Figure16(env Env) (*AccessTimeResult, *Table, error) {
	m, err := cpusim.NewMachine(arch.SkylakeGold6134())
	if err != nil {
		return nil, nil, err
	}
	p := m.Profile
	page, err := m.Space.MapHugepage1G()
	if err != nil {
		return nil, nil, err
	}
	reps := env.Scale.pick(50, 1000)
	const targetsPerSlice = 8
	core := m.Core(0)
	loader := m.Core(1)
	prober := reveng.NewProber(m, 1)
	prober.SetPolls(env.Scale.pick(4, 16))

	// Bucket hugepage lines by their polled slice.
	targets := make([][]uint64, p.Slices)
	need := p.Slices * targetsPerSlice
	found := 0
	for a := page.PhysBase; found < need && a < page.PhysBase+page.Size; a += 64 {
		s, err := prober.SliceOf(a)
		if err != nil {
			return nil, nil, err
		}
		if len(targets[s]) < targetsPerSlice {
			targets[s] = append(targets[s], a)
			found++
		}
	}
	if found < need {
		return nil, nil, fmt.Errorf("experiments: polled only %d/%d target lines", found, need)
	}

	l2SetStride := uint64(p.L2.Sets() * 64)
	res := &AccessTimeResult{
		Core:        0,
		ReadCycles:  make([]float64, p.Slices),
		WriteCycles: make([]float64, p.Slices),
	}
	for s := 0; s < p.Slices; s++ {
		var readSum, writeSum float64
		for r := 0; r < reps; r++ {
			for _, pa := range targets[s] {
				core.FlushPhys(pa)
				loader.ReadPhys(pa)
				// Evict pa from the loader's L2 into the victim LLC by
				// streaming one set's worth of conflicting lines.
				for w := 1; w <= p.L2.Ways+1; w++ {
					loader.ReadPhys(pa + uint64(w)*l2SetStride)
				}
			}
			var cycles uint64
			for _, pa := range targets[s] {
				cycles += core.ReadPhys(pa)
			}
			readSum += float64(cycles)/targetsPerSlice + float64(p.L1Latency)

			var wcycles uint64
			for _, pa := range targets[s] {
				wcycles += core.WritePhys(pa) // now L1-resident: flat
			}
			writeSum += float64(wcycles)/targetsPerSlice + float64(p.L1Latency)
		}
		res.ReadCycles[s] = readSum / float64(reps)
		res.WriteCycles[s] = writeSum / float64(reps)
	}

	t := &Table{
		ID:     "F16",
		Title:  fmt.Sprintf("Access time from core 0 to each LLC slice (%s)", p.Name),
		Header: []string{"Slice", "Read (cycles)", "Write (cycles)"},
	}
	for s := 0; s < p.Slices; s++ {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", s), f1(res.ReadCycles[s]), f1(res.WriteCycles[s])})
	}
	t.Notes = []string{"mesh interconnect: latency grows with Manhattan distance from core 0's tile; slices polled via CHA counters"}
	return res, t, nil
}

// PreferenceResult carries Table 4.
type PreferenceResult struct {
	Prefs []interconnect.Preference
}

// Table4 reproduces Table 4: each Skylake core's primary and secondary
// slices, derived from measured (simulated) access latencies.
func Table4() (*PreferenceResult, *Table, error) {
	m, err := cpusim.NewMachine(arch.SkylakeGold6134())
	if err != nil {
		return nil, nil, err
	}
	prefs := interconnect.Preferences(m.Topo)
	t := &Table{
		ID:     "T4",
		Title:  "Preferable slices per core (Intel Xeon Gold 6134)",
		Header: []string{"Core", "Primary slice", "Secondary slices"},
	}
	for _, p := range prefs {
		secs := make([]string, len(p.Secondary))
		for i, s := range p.Secondary {
			secs[i] = fmt.Sprintf("S%d", s)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("C%d", p.Core),
			fmt.Sprintf("S%d", p.Primary),
			strings.Join(secs, ", "),
		})
	}
	t.Notes = append(t.Notes, "18 slices for 8 cores: every core has spare nearby slices (§6)")
	return &PreferenceResult{Prefs: prefs}, t, nil
}
