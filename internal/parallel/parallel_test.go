package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedAcrossWorkerCounts(t *testing.T) {
	const n = 257
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{0, 1, 2, 3, 8, 64, n + 5} {
		got, err := Map(workers, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d]=%d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapReportsLowestIndexedError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	// Fail two trials; regardless of completion order the lower index wins.
	highDone := make(chan struct{})
	got, err := Map(4, 16, func(i int) (int, error) {
		switch i {
		case 11:
			defer close(highDone)
			return 0, errHigh
		case 5:
			<-highDone // finish after trial 11
			return 0, errLow
		}
		return i, nil
	})
	if err != errLow {
		t.Fatalf("got error %v, want %v", err, errLow)
	}
	if got[3] != 3 {
		t.Fatalf("successful trial result lost: got[3]=%d", got[3])
	}
}

func TestMapSequentialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := Map(1, 10, func(i int) (int, error) {
		calls.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if calls.Load() != 4 {
		t.Fatalf("sequential map ran %d trials after failure, want 4", calls.Load())
	}
}

func TestMapZeroTrials(t *testing.T) {
	got, err := Map(8, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

// peersMeet runs Map(workers, 2, ...) over two trials that can only finish
// if both are in flight at once.
func peersMeet(t *testing.T, workers int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-proc environment")
	}
	start := make(chan struct{})
	var arrived atomic.Int64
	_, err := Map(workers, 2, func(i int) (int, error) {
		if arrived.Add(1) == 2 {
			close(start)
		}
		select {
		case <-start:
			return i, nil
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("trial %d never saw a peer: Map(%d, ...) is not concurrent", i, workers)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) { peersMeet(t, 2) }

// TestMapZeroWorkersMeansGOMAXPROCS holds the rule every -jobs and
// -workers flag relies on: a worker count of 0 fans out on GOMAXPROCS
// workers instead of running inline.
func TestMapZeroWorkersMeansGOMAXPROCS(t *testing.T) { peersMeet(t, 0) }

func TestSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, fig := range []string{"F8", "F-FAULTS", "F-OVERLOAD"} {
		for trial := 0; trial < 64; trial++ {
			s := Seed(1, fig, trial)
			if s != Seed(1, fig, trial) {
				t.Fatalf("Seed(1,%q,%d) unstable", fig, trial)
			}
			key := fmt.Sprintf("%s/%d", fig, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
	if Seed(1, "F8", 0) == Seed(2, "F8", 0) {
		t.Fatal("run seed does not influence trial seed")
	}
}

// BenchmarkMapOverhead measures the fixed cost of fanning trivial trials
// out versus running them inline; it bounds the smallest trial worth
// parallelizing.
func BenchmarkMapOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Map(workers, 8, func(j int) (int, error) { return j, nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
