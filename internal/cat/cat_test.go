package cat

import (
	"math/rand"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
)

func newSkylake(t *testing.T) *cpusim.Machine {
	t.Helper()
	m, err := cpusim.NewMachine(arch.SkylakeGold6134())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScenarioStrings(t *testing.T) {
	for _, s := range []Scenario{NoCAT, WayIsolated, SliceIsolated} {
		if s.String() == "" {
			t.Errorf("scenario %d has no name", int(s))
		}
	}
	if Scenario(9).String() == "" {
		t.Error("unknown scenario should stringify")
	}
}

func TestDefaultsAndValidation(t *testing.T) {
	m := newSkylake(t)
	e, err := New(m, Config{Scenario: NoCAT})
	if err != nil {
		t.Fatal(err)
	}
	// Default working set: ¾ slice + L2 = ¾·1.375 MB + 1 MB ≈ 2 MB (§7).
	want := (1408<<10)*3/4 + 1<<20
	if got := len(e.mainLines) * 64; got != want {
		t.Errorf("main WS = %d B, want %d", got, want)
	}
	if _, err := New(m, Config{Scenario: NoCAT, MainCore: 3, NoisyCore: 3}); err == nil {
		t.Error("same core for both apps accepted")
	}
	if _, err := New(newSkylake(t), Config{Scenario: WayIsolated, MainWays: 11}); err == nil {
		t.Error("main taking all ways accepted")
	}
	if _, err := New(newSkylake(t), Config{Scenario: Scenario(42)}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestSliceIsolatedPlacement(t *testing.T) {
	m := newSkylake(t)
	e, err := New(m, Config{Scenario: SliceIsolated, MainWS: 64 << 10, NoisyWS: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range e.mainLines {
		pa, err := m.Space.Translate(va)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.LLC.SliceOf(pa); got != 0 {
			t.Fatalf("main line on slice %d, want 0", got)
		}
	}
	for _, va := range e.noisyLines {
		pa, _ := m.Space.Translate(va)
		if got := m.LLC.SliceOf(pa); got == 0 {
			t.Fatal("noisy line on slice 0 — isolation broken")
		}
	}
}

func TestRunValidation(t *testing.T) {
	m := newSkylake(t)
	e, err := New(m, Config{Scenario: NoCAT, MainWS: 64 << 10, NoisyWS: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := e.Run(0, 1, false, rng); err == nil {
		t.Error("zero ops accepted")
	}
	if _, err := e.Run(10, -1, false, rng); err == nil {
		t.Error("negative noise ratio accepted")
	}
}

// The Fig 17 ordering: with a noisy neighbour, slice isolation beats way
// isolation, and both beat no isolation.
func TestIsolationOrdering(t *testing.T) {
	const ops = 10000
	const noisePerOp = 8

	run := func(s Scenario, write bool) Result {
		m := newSkylake(t)
		e, err := New(m, Config{Scenario: s})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		e.Warmup()
		res, err := e.Run(ops, noisePerOp, write, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, write := range []bool{false, true} {
		noCat := run(NoCAT, write)
		ways := run(WayIsolated, write)
		slice0 := run(SliceIsolated, write)
		if slice0.ExecTimeMs >= ways.ExecTimeMs {
			t.Errorf("write=%v: slice isolation (%.4f ms) not faster than 2W CAT (%.4f ms)",
				write, slice0.ExecTimeMs, ways.ExecTimeMs)
		}
		if ways.ExecTimeMs >= noCat.ExecTimeMs {
			t.Errorf("write=%v: 2W CAT (%.4f ms) not faster than NoCAT (%.4f ms)",
				write, ways.ExecTimeMs, noCat.ExecTimeMs)
		}
		// The NoCAT run must actually be suffering DRAM misses from the
		// neighbour's pollution.
		if noCat.MainDRAMRate <= slice0.MainDRAMRate {
			t.Errorf("write=%v: NoCAT DRAM rate %.3f not above slice-isolated %.3f",
				write, noCat.MainDRAMRate, slice0.MainDRAMRate)
		}
	}
}
