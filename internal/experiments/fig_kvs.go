package experiments

import (
	"fmt"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachedirector"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/kvs"
	"sliceaware/internal/stats"
	"sliceaware/internal/zipf"
)

// KVSCell is one bar of Fig 8.
type KVSCell struct {
	GetRatio     float64
	Skewed       bool
	SliceAware   bool
	TPSMillions  float64
	CyclesPerReq float64
}

// KVSResult carries all Fig 8 bars.
type KVSResult struct {
	Keys  uint64
	Cells []KVSCell
}

// Cell finds a configuration's result.
func (r *KVSResult) Cell(getRatio float64, skewed, sliceAware bool) (KVSCell, bool) {
	for _, c := range r.Cells {
		if c.GetRatio == getRatio && c.Skewed == skewed && c.SliceAware == sliceAware {
			return c, true
		}
	}
	return KVSCell{}, false
}

// Figure8 reproduces Fig 8: average TPS of the emulated KVS for
// {100,95,50} % GET workloads under Zipf(0.99) and uniform key
// distributions, slice-aware vs normal value placement.
//
// The store is scaled from the paper's 2²⁴ keys to 2¹⁷ (Quick) / 2¹⁸
// (Full) 64 B values — preserving the regime where the hot set fits the
// serving core's slice while the full store exceeds the LLC.
func Figure8(env Env) (*KVSResult, *Table, error) {
	keys := uint64(1) << uint(env.Scale.pick(17, 18))
	warm := env.Scale.pick(10000, 40000)
	requests := env.Scale.pick(20000, 100000)

	res := &KVSResult{Keys: keys}
	ratios := []float64{1.0, 0.95, 0.5}
	type cellCfg struct {
		skewed, sliceAware bool
		ratio              float64
	}
	var cfgs []cellCfg
	for _, skewed := range []bool{true, false} {
		for _, sliceAware := range []bool{true, false} {
			for _, ratio := range ratios {
				cfgs = append(cfgs, cellCfg{skewed, sliceAware, ratio})
			}
		}
	}
	// Every cell gets a fresh machine, store and key generator (so no
	// configuration inherits another's cache state), which also makes the
	// twelve cells independent trials for the worker pool.
	cells, err := runTrials(env, len(cfgs), func(trial int) (KVSCell, error) {
		cfg := cfgs[trial]
		m, err := cpusim.NewMachine(arch.HaswellE52667v3())
		if err != nil {
			return KVSCell{}, err
		}
		store, err := kvs.New(m, kvs.Config{Keys: keys, ServingCore: 0, SliceAware: cfg.sliceAware})
		if err != nil {
			return KVSCell{}, err
		}
		gen, err := newKeyGen(env, cfg.skewed, keys)
		if err != nil {
			return KVSCell{}, err
		}
		if _, err := store.Run(kvs.Workload{GetRatio: cfg.ratio, Keys: gen, Requests: warm}); err != nil {
			return KVSCell{}, err
		}
		r, err := store.Run(kvs.Workload{GetRatio: cfg.ratio, Keys: gen, Requests: requests})
		if err != nil {
			return KVSCell{}, err
		}
		return KVSCell{
			GetRatio: cfg.ratio, Skewed: cfg.skewed, SliceAware: cfg.sliceAware,
			TPSMillions: r.TPSMillions, CyclesPerReq: r.CyclesPerReq,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res.Cells = cells

	t := &Table{
		ID:     "F8",
		Title:  fmt.Sprintf("Emulated KVS: average TPS (millions), %d keys × 64 B values, 1 serving core", keys),
		Header: []string{"Workload", "Slice-Skewed-0.99", "Normal-Skewed-0.99", "Slice-Uniform", "Normal-Uniform"},
	}
	for _, ratio := range ratios {
		row := []string{fmt.Sprintf("%.0f%% GET", ratio*100)}
		for _, cfg := range []struct{ skew, slice bool }{{true, true}, {true, false}, {false, true}, {false, false}} {
			c, ok := res.Cell(ratio, cfg.skew, cfg.slice)
			if !ok {
				return nil, nil, fmt.Errorf("experiments: missing KVS cell")
			}
			row = append(row, f3(c.TPSMillions))
		}
		t.Rows = append(t.Rows, row)
	}
	if c, ok := res.Cell(1.0, true, true); ok {
		n, _ := res.Cell(1.0, true, false)
		t.Notes = append(t.Notes, fmt.Sprintf("100%% GET skewed: %.0f vs %.0f cycles/request (paper: ~160 vs ~194)", c.CyclesPerReq, n.CyclesPerReq))
	}
	return res, t, nil
}

func newKeyGen(env Env, skewed bool, keys uint64) (zipf.Generator, error) {
	rng := env.rng(2024)
	if skewed {
		return zipf.NewZipf(rng, keys, 0.99)
	}
	return zipf.NewUniform(rng, keys)
}

// HeadroomResult carries the §4.2 dynamic-headroom distribution.
type HeadroomResult struct {
	Summary stats.Summary
	Misses  int // (mbuf,core) pairs with no in-budget placement
}

// Headroom reproduces the §4.2 experiment: the distribution of the dynamic
// headroom CacheDirector needs across a mempool and all cores (the paper
// measured ~12.3 M campus-trace packets; every packet draws one mbuf, so
// the per-mbuf/per-core table is the same distribution).
func Headroom(env Env) (*HeadroomResult, *Table, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, nil, err
	}
	d, err := cachedirector.New(m, cachedirector.Config{})
	if err != nil {
		return nil, nil, err
	}
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "headroom", Mbufs: env.Scale.pick(2048, 16384), HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := d.InitPool(pool); err != nil {
		return nil, nil, err
	}
	var hs []float64
	for core := 0; core < m.Cores(); core++ {
		for _, h := range d.CollectHeadrooms(pool, core) {
			hs = append(hs, float64(h))
		}
	}
	_, misses := d.Stats()
	sum := stats.Summarize(hs)
	res := &HeadroomResult{Summary: sum, Misses: misses}

	t := &Table{
		ID:     "HR",
		Title:  "Dynamic headroom distribution (bytes) across mbufs × cores",
		Header: []string{"Median", "95th percentile", "Max", "Mean", "Placement misses"},
		Rows: [][]string{{
			f1(sum.P50), f1(sum.P95), f1(sum.Max), f1(sum.Mean), fmt.Sprintf("%d", misses),
		}},
		Notes: []string{"paper (campus trace): median 256 B, 95% < 512 B, max 832 B"},
	}
	return res, t, nil
}
