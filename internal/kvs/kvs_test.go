package kvs

import (
	"math/rand"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/zipf"
)

func newMachine(t *testing.T) *cpusim.Machine {
	t.Helper()
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	m := newMachine(t)
	if _, err := New(m, Config{Keys: 0}); err == nil {
		t.Error("zero keys accepted")
	}
	if _, err := New(m, Config{Keys: 8, ServingCore: 99}); err == nil {
		t.Error("bad core accepted")
	}
}

func TestSliceAwarePlacement(t *testing.T) {
	m := newMachine(t)
	s, err := New(m, Config{Keys: 1 << 14, ServingCore: 2, SliceAware: true, HotLines: 1024})
	if err != nil {
		t.Fatal(err)
	}
	target := s.PreferredSlice()
	if target != 2 {
		t.Fatalf("preferred slice = %d, want co-located 2 on the ring", target)
	}
	// Hot values must be on the serving core's slice.
	for k := uint64(0); k < 1024; k += 37 {
		pa, err := m.Space.Translate(s.valueLines(k)[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := m.LLC.SliceOf(pa); got != target {
			t.Errorf("hot key %d on slice %d, want %d", k, got, target)
		}
	}
	// Cold values spread (at least two distinct slices in a sample).
	seen := map[int]bool{}
	for k := uint64(2000); k < 2200; k++ {
		pa, _ := m.Space.Translate(s.valueLines(k)[0])
		seen[m.LLC.SliceOf(pa)] = true
	}
	if len(seen) < 2 {
		t.Error("cold values all on one slice; expected Complex Addressing spread")
	}
}

func TestNormalPlacementSpreads(t *testing.T) {
	m := newMachine(t)
	s, err := New(m, Config{Keys: 1 << 12, ServingCore: 0})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for k := uint64(0); k < 1<<12; k += 16 {
		pa, _ := m.Space.Translate(s.valueLines(k)[0])
		seen[m.LLC.SliceOf(pa)] = true
	}
	if len(seen) != 8 {
		t.Errorf("contiguous store touches %d slices, want 8", len(seen))
	}
}

func TestRunCountsAndRatio(t *testing.T) {
	m := newMachine(t)
	s, err := New(m, Config{Keys: 1 << 12, ServingCore: 0})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := zipf.NewUniform(rand.New(rand.NewSource(1)), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(Workload{GetRatio: 0.95, Keys: keys, Requests: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gets+res.Sets+res.Dropped != 2000 {
		t.Fatalf("counts: %+v", res)
	}
	wantGets := uint64(0.95 * 2000)
	if res.Gets < wantGets-2 || res.Gets > wantGets+2 {
		t.Errorf("gets = %d, want ≈%d", res.Gets, wantGets)
	}
	if res.TPSMillions <= 0 || res.CyclesPerReq <= 0 {
		t.Errorf("rates: %+v", res)
	}
}

func TestRunValidation(t *testing.T) {
	m := newMachine(t)
	s, err := New(m, Config{Keys: 64, ServingCore: 0})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := zipf.NewUniform(rand.New(rand.NewSource(1)), 64)
	if _, err := s.Run(Workload{GetRatio: 1, Keys: keys, Requests: 0}); err == nil {
		t.Error("zero requests accepted")
	}
	if _, err := s.Run(Workload{GetRatio: 2, Keys: keys, Requests: 10}); err == nil {
		t.Error("ratio 2 accepted")
	}
	if _, err := s.Run(Workload{GetRatio: 1, Keys: nil, Requests: 10}); err == nil {
		t.Error("nil generator accepted")
	}
	big, _ := zipf.NewUniform(rand.New(rand.NewSource(1)), 128)
	if _, err := s.Run(Workload{GetRatio: 1, Keys: big, Requests: 10}); err == nil {
		t.Error("generator larger than store accepted")
	}
}

// The headline Fig 8 behaviour: slice-aware beats normal under skew, and
// the two are close under uniform load.
func TestSliceAwareWinsUnderSkew(t *testing.T) {
	const keys = 1 << 17
	const requests = 30000

	run := func(sliceAware bool, skewed bool) float64 {
		m := newMachine(t)
		s, err := New(m, Config{Keys: keys, ServingCore: 0, SliceAware: sliceAware})
		if err != nil {
			t.Fatal(err)
		}
		var gen zipf.Generator
		if skewed {
			gen, err = zipf.NewZipf(rand.New(rand.NewSource(42)), keys, 0.99)
		} else {
			gen, err = zipf.NewUniform(rand.New(rand.NewSource(42)), keys)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up pass, then the measured run (the paper reports steady
		// state).
		if _, err := s.Run(Workload{GetRatio: 1, Keys: gen, Requests: requests / 2}); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(Workload{GetRatio: 1, Keys: gen, Requests: requests})
		if err != nil {
			t.Fatal(err)
		}
		return res.TPSMillions
	}

	slicedSkew := run(true, true)
	normalSkew := run(false, true)
	if slicedSkew <= normalSkew {
		t.Errorf("skewed: slice-aware %.2f MTPS ≤ normal %.2f MTPS", slicedSkew, normalSkew)
	}
	gain := (slicedSkew - normalSkew) / normalSkew
	if gain > 0.35 {
		t.Errorf("skewed gain %.1f%% implausibly large", gain*100)
	}

	slicedUni := run(true, false)
	normalUni := run(false, false)
	diff := (slicedUni - normalUni) / normalUni
	if diff < -0.05 {
		t.Errorf("uniform: slice-aware %.2f MTPS more than 5%% below normal %.2f", slicedUni, normalUni)
	}
}

// SET-heavy workloads must not outpace GET-heavy ones (stores drain dirty
// lines — Fig 8's 50 % GET column is the slowest).
func TestSetsSlowerThanGets(t *testing.T) {
	m := newMachine(t)
	s, err := New(m, Config{Keys: 1 << 15, ServingCore: 0})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := zipf.NewZipf(rand.New(rand.NewSource(7)), 1<<15, 0.99)
	warm, _ := zipf.NewZipf(rand.New(rand.NewSource(7)), 1<<15, 0.99)
	s.Run(Workload{GetRatio: 1, Keys: warm, Requests: 10000})
	all, err := s.Run(Workload{GetRatio: 1, Keys: gen, Requests: 20000})
	if err != nil {
		t.Fatal(err)
	}
	half, err := s.Run(Workload{GetRatio: 0.5, Keys: gen, Requests: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if half.TPSMillions > all.TPSMillions {
		t.Errorf("50%% GET (%.2f MTPS) faster than 100%% GET (%.2f MTPS)", half.TPSMillions, all.TPSMillions)
	}
}
