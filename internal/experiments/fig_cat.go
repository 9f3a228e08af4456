package experiments

import (
	"fmt"

	"sliceaware/internal/arch"
	"sliceaware/internal/cat"
	"sliceaware/internal/cpusim"
)

// IsolationCell is one bar of Fig 17.
type IsolationCell struct {
	Scenario   cat.Scenario
	Write      bool
	ExecTimeMs float64
	DRAMRate   float64
}

// IsolationResult carries all Fig 17 bars.
type IsolationResult struct {
	Cells []IsolationCell
	// SliceVsWaySpeedupRead/Write are the annotations of Fig 17: how much
	// faster slice isolation is than 2-way CAT isolation.
	SliceVsWaySpeedupRead  float64
	SliceVsWaySpeedupWrite float64
}

// Cell finds a configuration's result.
func (r *IsolationResult) Cell(s cat.Scenario, write bool) (IsolationCell, bool) {
	for _, c := range r.Cells {
		if c.Scenario == s && c.Write == write {
			return c, true
		}
	}
	return IsolationCell{}, false
}

// Figure17 reproduces Fig 17: execution time of a 2 MB-working-set
// application beside a noisy neighbour on the Skylake Gold 6134, under no
// isolation, 2-way CAT isolation, and slice-0 isolation.
func Figure17(env Env) (*IsolationResult, *Table, error) {
	ops := env.Scale.pick(6000, 20000)
	noisePerOp := 8

	res := &IsolationResult{}
	for _, write := range []bool{false, true} {
		for _, scen := range []cat.Scenario{cat.NoCAT, cat.WayIsolated, cat.SliceIsolated} {
			m, err := cpusim.NewMachine(arch.SkylakeGold6134())
			if err != nil {
				return nil, nil, err
			}
			e, err := cat.New(m, cat.Config{Scenario: scen})
			if err != nil {
				return nil, nil, err
			}
			e.Warmup()
			out, err := e.Run(ops, noisePerOp, write, env.rng(17))
			if err != nil {
				return nil, nil, err
			}
			res.Cells = append(res.Cells, IsolationCell{
				Scenario: scen, Write: write,
				ExecTimeMs: out.ExecTimeMs, DRAMRate: out.MainDRAMRate,
			})
		}
	}
	wr, _ := res.Cell(cat.WayIsolated, false)
	sr, _ := res.Cell(cat.SliceIsolated, false)
	ww, _ := res.Cell(cat.WayIsolated, true)
	sw, _ := res.Cell(cat.SliceIsolated, true)
	if wr.ExecTimeMs > 0 {
		res.SliceVsWaySpeedupRead = (wr.ExecTimeMs - sr.ExecTimeMs) / wr.ExecTimeMs
	}
	if ww.ExecTimeMs > 0 {
		res.SliceVsWaySpeedupWrite = (ww.ExecTimeMs - sw.ExecTimeMs) / ww.ExecTimeMs
	}

	t := &Table{
		ID:     "F17",
		Title:  "Cache isolation vs noisy neighbour (Xeon Gold 6134): main app execution time",
		Header: []string{"Scenario", "Read (ms)", "Read DRAM rate", "Write (ms)", "Write DRAM rate"},
	}
	for _, scen := range []cat.Scenario{cat.NoCAT, cat.WayIsolated, cat.SliceIsolated} {
		r, _ := res.Cell(scen, false)
		w, _ := res.Cell(scen, true)
		t.Rows = append(t.Rows, []string{
			scen.String(), f3(r.ExecTimeMs), f3(r.DRAMRate), f3(w.ExecTimeMs), f3(w.DRAMRate),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"slice isolation vs 2W CAT: %s faster (read), %s faster (write); paper: ≈11.5%% / ≈11.8%%",
		pct(res.SliceVsWaySpeedupRead), pct(res.SliceVsWaySpeedupWrite)))
	return res, t, nil
}
