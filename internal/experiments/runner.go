package experiments

import (
	"math/rand"

	"sliceaware/internal/parallel"
	"sliceaware/internal/telemetry"
)

// Env is everything a harness reads besides its own code: the run-wide
// seed, the worker count, the sample-count scale and the telemetry
// collector. Harnesses hold no package-level state, so any number of them
// may run at once, each on its own Env.
type Env struct {
	// Seed is the run-wide seed every experiment derives its randomness
	// from. Each call site owns a fixed stream number (Env.rng), so one
	// seed reproduces the entire figure set while keeping the streams
	// independent.
	Seed int64
	// Jobs is the number of workers the independent trials of one
	// experiment fan out on; <= 0 selects GOMAXPROCS. Output is
	// byte-identical for every value.
	Jobs int
	// Scale selects sample counts.
	Scale Scale
	// Telemetry, when non-nil, instruments every DuT the harness builds.
	// Telemetry is observation-only: it must not change any figure's
	// numbers (telemetry_determinism_test.go holds this line).
	Telemetry *telemetry.Collector
}

// rng derives the generator for one experiment stream from the run seed.
func (e Env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.Seed*-0x61c8864680b583eb ^ stream))
}

// runTrials fans the n independent trials of one experiment across
// env.Jobs workers and returns their results in trial order. A trial must
// be self-contained — fresh machine, fresh RNGs, no writes to shared
// state — which every harness in this package upholds; the
// jobs-equivalence tests in seed_guard_test.go pin the byte-identical
// guarantee. An armed collector runs the trials one after another: its
// timeline and flight recorder are single-writer, and interleaved trials
// would shuffle its event order.
func runTrials[T any](env Env, n int, fn func(trial int) (T, error)) ([]T, error) {
	jobs := env.Jobs
	if env.Telemetry != nil {
		jobs = 1
	}
	return parallel.Map(jobs, n, fn)
}
