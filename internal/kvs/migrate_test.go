package kvs

import (
	"errors"
	"math/rand"
	"testing"

	"sliceaware/internal/faults"
	"sliceaware/internal/zipf"
)

func TestLargeValuesScatterOnSlice(t *testing.T) {
	m := newMachine(t)
	s, err := New(m, Config{Keys: 1 << 12, ServingCore: 0, SliceAware: true, ValueSize: 256, HotLines: 256})
	if err != nil {
		t.Fatal(err)
	}
	// A hot key's 4 lines must all be on the preferred slice.
	target := s.PreferredSlice()
	for k := uint64(0); k < 256; k += 17 {
		lines := s.valueLines(k)
		if len(lines) != 4 {
			t.Fatalf("key %d has %d lines, want 4", k, len(lines))
		}
		for _, va := range lines {
			pa, err := m.Space.Translate(va)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.LLC.SliceOf(pa); got != target {
				t.Fatalf("hot key %d line on slice %d, want %d", k, got, target)
			}
		}
	}
}

func TestLargeValuesServeCost(t *testing.T) {
	m := newMachine(t)
	small, err := New(m, Config{Keys: 1 << 10, ServingCore: 0})
	if err != nil {
		t.Fatal(err)
	}
	m2 := newMachine(t)
	big, err := New(m2, Config{Keys: 1 << 10, ServingCore: 0, ValueSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	gen1, _ := zipf.NewUniform(rand.New(rand.NewSource(1)), 1<<10)
	gen2, _ := zipf.NewUniform(rand.New(rand.NewSource(1)), 1<<10)
	r1, err := small.Run(Workload{GetRatio: 1, Keys: gen1, Requests: 3000})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := big.Run(Workload{GetRatio: 1, Keys: gen2, Requests: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if r2.CyclesPerReq <= r1.CyclesPerReq {
		t.Errorf("1 KB values (%f cyc) not more expensive than 64 B (%f cyc)", r2.CyclesPerReq, r1.CyclesPerReq)
	}
}

func TestMigrationValidation(t *testing.T) {
	m := newMachine(t)
	s, err := New(m, Config{Keys: 64, ServingCore: 0, SliceAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MigrateTopK(4); err == nil {
		t.Error("migration without tracking accepted")
	}
	s.EnableHotTracking()
	if s.hotCounts == nil {
		t.Error("tracking not enabled")
	}
	if _, err := s.MigrateTopK(0); err == nil {
		t.Error("k=0 accepted")
	}

	normal, err := New(newMachine(t), Config{Keys: 64, ServingCore: 0})
	if err != nil {
		t.Fatal(err)
	}
	normal.EnableHotTracking()
	if _, err := normal.MigrateTopK(4); err == nil {
		t.Error("migration on a non-slice-aware store accepted")
	}
}

func TestMigrationMovesShiftedHotSet(t *testing.T) {
	const keys = 1 << 14
	m := newMachine(t)
	s, err := New(m, Config{Keys: keys, ServingCore: 0, SliceAware: true, HotLines: 2048})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableHotTracking()

	// The workload's hot keys sit far outside the statically-homed
	// prefix: key = rank + 8192.
	gen, err := zipf.NewZipf(rand.New(rand.NewSource(3)), 4096, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	shifted := offsetGen{gen, 8192}

	if _, err := s.Run(Workload{GetRatio: 1, Keys: shifted, Requests: 8000}); err != nil {
		t.Fatal(err)
	}
	// The top shifted keys are not slice-homed yet.
	if s.sliceHomed(8192) {
		t.Fatal("shifted hot key already slice-homed?")
	}
	res, err := s.MigrateTopK(256)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated == 0 {
		t.Fatal("nothing migrated")
	}
	if res.Cycles == 0 {
		t.Error("migration charged no copy cost")
	}
	// The hottest shifted keys must now be slice-homed.
	if !s.sliceHomed(8192) {
		t.Error("hottest shifted key not migrated")
	}
	if s.hotCounts[8192] == 0 {
		t.Error("access counting broken")
	}

	// Migration must improve steady-state cycles/request on the shifted
	// workload: replay the identical request sequence on the same warm
	// store before and after (the before-run doubles as extra warm-up).
	g1, _ := zipf.NewZipf(rand.New(rand.NewSource(4)), 4096, 0.99)
	before, err := s.Run(Workload{GetRatio: 1, Keys: offsetGen{g1, 8192}, Requests: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MigrateTopK(1024); err != nil {
		t.Fatal(err)
	}
	g2, _ := zipf.NewZipf(rand.New(rand.NewSource(4)), 4096, 0.99)
	after, err := s.Run(Workload{GetRatio: 1, Keys: offsetGen{g2, 8192}, Requests: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if after.CyclesPerReq >= before.CyclesPerReq {
		t.Errorf("migration did not pay off: %.1f cycles/req after vs %.1f before",
			after.CyclesPerReq, before.CyclesPerReq)
	}
}

// offsetGen shifts a generator's ranks into a different key range.
type offsetGen struct {
	inner  zipf.Generator
	offset uint64
}

func (o offsetGen) Next() uint64 { return o.inner.Next() + o.offset }
func (o offsetGen) N() uint64    { return o.inner.N() + o.offset }

func TestMigrationRetriesUnderContention(t *testing.T) {
	const keys = 1 << 12
	setup := func(t *testing.T, fi *faults.Injector) *Store {
		t.Helper()
		s, err := New(newMachine(t), Config{Keys: keys, ServingCore: 0, SliceAware: true, HotLines: 512})
		if err != nil {
			t.Fatal(err)
		}
		s.SetFaultInjector(fi)
		s.EnableHotTracking()
		gen, err := zipf.NewZipf(rand.New(rand.NewSource(3)), 1024, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(Workload{GetRatio: 1, Keys: offsetGen{gen, 2048}, Requests: 4000}); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Intermittent contention: retries happen, progress is still made, and
	// the backoff cycles show up in the bill.
	fi := faults.MustNewInjector(faults.Plan{Seed: 5, Events: []faults.Event{
		{Kind: faults.MigrationContention, Probability: 0.4},
	}})
	s := setup(t, fi)
	res, err := s.MigrateTopK(64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated == 0 {
		t.Fatal("no progress despite retry budget")
	}
	if res.Retries == 0 {
		t.Error("40% contention produced zero retries")
	}

	// Permanent contention: every key exhausts its attempts, the pass
	// reports ErrContended (matching the injected-fault sentinel), and the
	// partial result still carries the accounting.
	stuck := faults.MustNewInjector(faults.Plan{Seed: 5, Events: []faults.Event{
		{Kind: faults.MigrationContention, Probability: 1},
	}})
	s2 := setup(t, stuck)
	res2, err := s2.MigrateTopK(64)
	if err == nil {
		t.Fatal("fully contended migration reported success")
	}
	if !errors.Is(err, ErrContended) || !errors.Is(err, faults.ErrInjected) {
		t.Errorf("error %v does not wrap ErrContended/faults.ErrInjected", err)
	}
	if res2.Migrated != 0 || res2.Skipped == 0 {
		t.Errorf("fully contended pass: %+v", res2)
	}
	if res2.Retries != res2.Skipped*DefaultRetryAttempts {
		t.Errorf("retries = %d, want %d", res2.Retries, res2.Skipped*DefaultRetryAttempts)
	}
	if res2.Cycles == 0 {
		t.Error("backoff charged no cycles")
	}
}
