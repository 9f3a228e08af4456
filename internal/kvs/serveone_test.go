package kvs

import (
	"errors"
	"math/rand"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/zipf"
)

func TestServeOneMatchesRunAccounting(t *testing.T) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{Keys: 1 << 10, SliceAware: true})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i := 0; i < 100; i++ {
		cycles, err := s.ServeOne(uint64(i%64), i%4 != 0)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if cycles == 0 {
			t.Fatalf("request %d consumed zero cycles", i)
		}
		total += cycles
	}
	gets, sets := s.Counts()
	if gets != 75 || sets != 25 {
		t.Fatalf("counts = %d GET / %d SET, want 75/25", gets, sets)
	}
	if total == 0 {
		t.Fatal("no cycles consumed")
	}
}

func TestServeOneRejectsOutOfRangeKey(t *testing.T) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{Keys: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, serveErr := s.ServeOne(16, true)
	if serveErr == nil {
		t.Fatal("out-of-range key accepted")
	}
	if errors.Is(serveErr, ErrDropped) {
		t.Fatal("range error must not read as a NIC drop")
	}
}

// TestServeOneAgreesWithRun drives the same key sequence through Run and
// through a ServeOne loop on a twin store: the per-request cycle economics
// must agree, since the daemon's latency model is exactly Run's.
func TestServeOneAgreesWithRun(t *testing.T) {
	build := func() *Store {
		m, err := cpusim.NewMachine(arch.HaswellE52667v3())
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(m, Config{Keys: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const requests = 2000

	runStore := build()
	gen, err := zipf.NewZipf(rand.New(rand.NewSource(7)), 1<<12, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runStore.Run(Workload{GetRatio: 1.0, Keys: gen, Requests: requests})
	if err != nil {
		t.Fatal(err)
	}

	oneStore := build()
	gen2, err := zipf.NewZipf(rand.New(rand.NewSource(7)), 1<<12, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < requests; i++ {
		c, err := oneStore.ServeOne(gen2.Next(), true)
		if err != nil {
			t.Fatal(err)
		}
		cycles += c
	}
	if perReq := float64(cycles) / float64(requests); perReq != res.CyclesPerReq {
		t.Fatalf("ServeOne loop consumed %v cycles per request, Run %v — paths diverged", perReq, res.CyclesPerReq)
	}
}
