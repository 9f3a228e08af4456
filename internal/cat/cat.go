// Package cat reproduces the §7 comparison between Intel Cache Allocation
// Technology (way isolation) and slice-aware cache isolation: a main
// application with a working set of three quarters of a slice plus the L2
// runs next to a noisy neighbour that streams through the LLC, under three
// configurations:
//
//	NoCAT          both share all ways of all slices
//	WayIsolated    CAT gives the main application 2 of 11 ways (≈18 % LLC)
//	SliceIsolated  the main application lives entirely in slice 0 (≈5 %),
//	               the neighbour's data avoids slice 0
//
// Execution time of the main application (read and write variants) is the
// measured quantity, as in Fig 17.
package cat

import (
	"fmt"
	"math/rand"

	"sliceaware/internal/cachesim"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/slicemem"
)

// Scenario selects the isolation configuration.
type Scenario int

const (
	// NoCAT shares everything.
	NoCAT Scenario = iota
	// WayIsolated gives the main app a 2-way CAT class, the neighbour the
	// remaining ways.
	WayIsolated
	// SliceIsolated homes the main app's working set to slice 0 and the
	// neighbour's everywhere else.
	SliceIsolated
)

func (s Scenario) String() string {
	switch s {
	case NoCAT:
		return "NoCAT"
	case WayIsolated:
		return "2W Isolated"
	case SliceIsolated:
		return "Slice-0 Isolated"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Config tunes the experiment.
type Config struct {
	Scenario Scenario
	// MainWS is the main application's working set in bytes; zero means
	// the paper's 2 MB (¾ slice + L2 on the Gold 6134).
	MainWS int
	// NoisyWS is the neighbour's streaming footprint; zero means 4× LLC.
	NoisyWS int
	// MainCore / NoisyCore pin the two applications (defaults 0 and 4).
	MainCore  int
	NoisyCore int
	// Ways used by CAT in WayIsolated mode for the main app (default 2).
	MainWays int
}

// Experiment is a ready-to-run isolation setup.
type Experiment struct {
	cfg     Config
	machine *cpusim.Machine

	main  *cpusim.Core
	noisy *cpusim.Core

	mainLines  []uint64 // VAs of the main app's working set lines
	noisyLines []uint64
	noisyPos   int // streaming position, persistent across runs
}

// New wires the scenario on the given machine (the paper runs this on the
// Skylake Gold 6134).
func New(machine *cpusim.Machine, cfg Config) (*Experiment, error) {
	prof := machine.Profile
	if cfg.MainWS == 0 {
		cfg.MainWS = prof.LLCSlice.SizeBytes*3/4 + prof.L2.SizeBytes
	}
	if cfg.NoisyWS == 0 {
		cfg.NoisyWS = 2 * prof.LLCTotalBytes()
	}
	if cfg.MainWays == 0 {
		cfg.MainWays = 2
	}
	if cfg.MainWays >= prof.LLCSlice.Ways {
		return nil, fmt.Errorf("cat: main ways %d must leave room for the neighbour (slice has %d)", cfg.MainWays, prof.LLCSlice.Ways)
	}
	if cfg.NoisyCore == 0 && cfg.MainCore == 0 {
		cfg.NoisyCore = 4
	}
	if cfg.MainCore == cfg.NoisyCore {
		return nil, fmt.Errorf("cat: main and noisy cores must differ")
	}

	e := &Experiment{
		cfg:     cfg,
		machine: machine,
		main:    machine.Core(cfg.MainCore),
		noisy:   machine.Core(cfg.NoisyCore),
	}

	alloc, err := slicemem.New(machine.Space, machine.LLC.Hash())
	if err != nil {
		return nil, err
	}

	switch cfg.Scenario {
	case NoCAT:
		if err := e.allocBoth(alloc, false); err != nil {
			return nil, err
		}
	case WayIsolated:
		if err := e.allocBoth(alloc, false); err != nil {
			return nil, err
		}
		// Program the isolation the way system software would: two CAT
		// classes of service with disjoint contiguous capacity masks.
		ctl, err := NewController(machine, 4)
		if err != nil {
			return nil, err
		}
		if err := ctl.SetCapacityMask(1, uint64(cachesim.MaskOfWays(cfg.MainWays))); err != nil {
			return nil, err
		}
		if err := ctl.SetCapacityMask(2, uint64(cachesim.MaskOfWayRange(cfg.MainWays, prof.LLCSlice.Ways))); err != nil {
			return nil, err
		}
		if err := ctl.Associate(cfg.MainCore, 1); err != nil {
			return nil, err
		}
		if err := ctl.Associate(cfg.NoisyCore, 2); err != nil {
			return nil, err
		}
	case SliceIsolated:
		if err := e.allocBoth(alloc, true); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cat: unknown scenario %v", cfg.Scenario)
	}
	return e, nil
}

// allocBoth lays out the two working sets. With sliceAware set, the main
// app's lines are homed to slice 0 and the neighbour's to slices 1..N-1
// ("pollutes all LLC slices except slice 0", §7).
func (e *Experiment) allocBoth(alloc *slicemem.Allocator, sliceAware bool) error {
	mainLines := e.cfg.MainWS / 64
	noisyLines := e.cfg.NoisyWS / 64
	if sliceAware {
		r, err := alloc.AllocLines(0, mainLines)
		if err != nil {
			return err
		}
		e.mainLines = r.Lines()
		others := make([]int, 0, e.machine.LLC.Slices()-1)
		for s := 1; s < e.machine.LLC.Slices(); s++ {
			others = append(others, s)
		}
		nr, err := alloc.AllocLinesMulti(others, noisyLines)
		if err != nil {
			return err
		}
		e.noisyLines = nr.Lines()
		return nil
	}
	r, err := alloc.AllocContiguous(e.cfg.MainWS)
	if err != nil {
		return err
	}
	e.mainLines = r.Lines()
	nr, err := alloc.AllocContiguous(e.cfg.NoisyWS)
	if err != nil {
		return err
	}
	e.noisyLines = nr.Lines()
	return nil
}

// Warmup drives both applications to steady state before measurement: the
// main application sweeps its working set twice (populating L2 and its LLC
// share) and the neighbour streams enough lines to cycle the whole LLC.
// Without this, a measured run would mostly observe cold compulsory misses
// rather than the contention Fig 17 is about.
func (e *Experiment) Warmup() {
	for pass := 0; pass < 2; pass++ {
		for _, va := range e.mainLines {
			e.main.Read(va)
		}
	}
	llcLines := e.machine.Profile.LLCTotalBytes() / 64
	n := llcLines + llcLines/2
	for i := 0; i < n; i++ {
		e.noisy.Read(e.noisyLines[i%len(e.noisyLines)])
	}
}

// Result reports one measured run.
type Result struct {
	ExecTimeMs   float64 // main application's execution time
	MainDRAMRate float64 // fraction of main ops served from DRAM
}

// Run interleaves ops random accesses by the main application with the
// streaming neighbour (noisyPerOp neighbour accesses per main op) and
// returns the main app's execution time. write selects the Fig 17 write
// variant. The rng drives the main app's uniform access pattern.
func (e *Experiment) Run(ops int, noisyPerOp int, write bool, rng *rand.Rand) (Result, error) {
	if ops <= 0 || noisyPerOp < 0 {
		return Result{}, fmt.Errorf("cat: need positive ops and non-negative noise ratio")
	}
	statsBefore := e.main.Stats()
	start := e.main.Cycles()
	for i := 0; i < ops; i++ {
		va := e.mainLines[rng.Intn(len(e.mainLines))]
		if write {
			e.main.Write(va)
		} else {
			e.main.Read(va)
		}
		for j := 0; j < noisyPerOp; j++ {
			e.noisy.Read(e.noisyLines[e.noisyPos])
			e.noisyPos++
			if e.noisyPos == len(e.noisyLines) {
				e.noisyPos = 0
			}
		}
	}
	cycles := e.main.Cycles() - start
	statsAfter := e.main.Stats()
	dram := statsAfter.DRAMOps - statsBefore.DRAMOps
	total := statsAfter.Reads + statsAfter.Writes - statsBefore.Reads - statsBefore.Writes
	res := Result{ExecTimeMs: float64(cycles) / e.machine.Profile.FrequencyHz * 1e3}
	if total > 0 {
		res.MainDRAMRate = float64(dram) / float64(total)
	}
	return res, nil
}
