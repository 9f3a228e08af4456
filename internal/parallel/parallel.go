// Package parallel is the worker-pool trial engine behind the experiment
// harnesses: it fans independent trials out across a bounded number of
// workers while keeping every run bit-reproducible.
//
// Two properties make parallel figure generation safe:
//
//   - Ordered collection. Map returns results indexed by trial, and the
//     first error (by trial index, not completion order) wins, so callers
//     observe exactly the sequence a sequential loop would have produced.
//   - Deterministic seeding. Seed derives one seed per (runSeed, figureID,
//     trialIndex) triple, so a trial's randomness never depends on which
//     worker picked it up or on how many workers exist.
//
// A trial itself must be self-contained: it builds its own testbed
// (machine, RNGs, generators) and only reads shared immutable state such
// as arch profiles, chash matrices and Zipf tables. Under those rules the
// output of Map is byte-identical for every worker count, which the
// experiments package pins with golden tests.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the n results in index order; workers <= 0 selects GOMAXPROCS.
// One worker (or n <= 1) runs inline on the calling goroutine with no
// synchronization at all, so the sequential path costs exactly what the
// pre-engine loop did.
//
// On error the results slice is still returned (completed trials keep
// their slots) together with the error of the lowest-indexed failed trial
// — the same error a sequential loop would have stopped at. Workers drain
// remaining indices even after a failure; trials are independent, so the
// extra work is harmless and keeps completion deterministic.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n <= 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			var err error
			if out[i], err = fn(i); err != nil {
				return out, err
			}
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Seed derives the deterministic seed of one trial:
//
//	seed = f(runSeed, figureID, trialIndex)
//
// The figure ID is folded in with FNV-1a and the three components are
// finalized with a splitmix64 mix, so distinct (figure, trial) pairs get
// statistically independent streams from one run-wide seed while the same
// triple always yields the same seed — on every worker count.
func Seed(runSeed int64, figureID string, trial int) int64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(figureID); i++ {
		h ^= uint64(figureID[i])
		h *= 1099511628211
	}
	v := uint64(runSeed)*0x9e3779b97f4a7c15 ^ h ^ uint64(trial)<<1
	return int64(mix64(v))
}

// mix64 is the splitmix64 finalizer.
func mix64(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}
