package kvs

import (
	"fmt"
	"sort"

	"sliceaware/internal/faults"
	"sliceaware/internal/overload"
)

// ErrContended marks a migration pass that could not move any key because
// every swap hit injected contention; it also matches faults.ErrInjected.
var ErrContended = fmt.Errorf("kvs: migration contended: %w", faults.ErrInjected)

// Default retry bounds for contended swaps.
const (
	DefaultRetryAttempts = 3
	DefaultBackoffCycles = 64
)

// RetryPolicy bounds how hard a migration pass fights contention on one
// key: up to MaxAttempts tries, waiting BackoffCycles before the second
// and doubling before each further one. Zero fields take the defaults.
type RetryPolicy struct {
	MaxAttempts   int
	BackoffCycles uint64
}

// SetFaultInjector arms value-swap contention (a concurrent reader pinning
// the line set, modelled by MigrationContention events). Nil disarms.
func (s *Store) SetFaultInjector(fi *faults.Injector) { s.faults = fi }

// SetBreaker arms a circuit breaker around the per-key swap: once the
// recent swap attempts are mostly contention losses the breaker opens and
// MigrateTopK skips remaining keys cheaply (no backoff burn), instead of
// exhausting each key's full retry budget against a storm that will not
// clear within the pass. The breaker's clock is the serving core's cycle
// count, so its cooldown is expressed in cycles. Nil disarms.
func (s *Store) SetBreaker(b *overload.Breaker) { s.breaker = b }

// Breaker returns the armed migration breaker (nil when disarmed).
func (s *Store) Breaker() *overload.Breaker { return s.breaker }

// Hot-data monitoring and migration (§8): applications whose hot set
// shifts over time "should employ monitoring/migration techniques to deal
// with variability of hot data". The tracker counts per-key accesses per
// epoch; MigrateTopK then swaps the storage of the hottest keys into the
// serving core's slice, paying the copy cost on the serving core.

// EnableHotTracking starts per-key access counting. Counting itself is
// modelled as free (a few bits folded into the existing index write).
func (s *Store) EnableHotTracking() {
	if s.hotCounts == nil {
		s.hotCounts = make([]uint32, s.cfg.Keys)
	}
}

// sliceHomed reports whether a key's value currently lives entirely in the
// preferred slice.
func (s *Store) sliceHomed(key uint64) bool {
	target := s.PreferredSlice()
	for _, va := range s.valueLines(key) {
		pa, err := s.machine.Space.Translate(va)
		if err != nil || s.machine.LLC.Hash().Slice(pa) != target {
			return false
		}
	}
	return true
}

// MigrationResult reports one MigrateTopK call.
type MigrationResult struct {
	Migrated     int    // keys whose storage moved into the preferred slice
	Retries      int    // swap attempts lost to contention (and retried or given up)
	Skipped      int    // keys abandoned after exhausting the retry budget
	BreakerSkips int    // keys skipped cheaply because the breaker was open
	Cycles       uint64 // copy cost charged to the serving core, incl. backoff
}

// MigrateTopK moves the storage of the K most-accessed keys of the current
// epoch into the preferred slice by swapping line sets with the least-
// accessed currently-slice-homed keys. Each swapped line costs two reads
// and two writes on the serving core (copy out, copy in).
func (s *Store) MigrateTopK(k int) (MigrationResult, error) {
	if s.hotCounts == nil {
		return MigrationResult{}, fmt.Errorf("kvs: hot tracking not enabled")
	}
	if !s.cfg.SliceAware {
		return MigrationResult{}, fmt.Errorf("kvs: migration needs a slice-aware store")
	}
	if k <= 0 {
		return MigrationResult{}, fmt.Errorf("kvs: non-positive k")
	}

	// Rank keys by epoch count.
	order := make([]uint64, s.cfg.Keys)
	for i := range order {
		order[i] = uint64(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.hotCounts[order[a]] > s.hotCounts[order[b]]
	})

	// Donors: slice-homed keys, coldest first.
	var donors []uint64
	for i := len(order) - 1; i >= 0; i-- {
		if s.sliceHomed(order[i]) {
			donors = append(donors, order[i])
		}
	}

	attempts := s.retry.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultRetryAttempts
	}
	firstBackoff := s.retry.BackoffCycles
	if firstBackoff == 0 {
		firstBackoff = DefaultBackoffCycles
	}

	res := MigrationResult{}
	start := s.core.Cycles()
	di := 0
	for _, key := range order[:min64(k, len(order))] {
		if s.hotCounts[key] == 0 || s.sliceHomed(key) {
			continue
		}
		// Find a donor colder than this key.
		for di < len(donors) && (donors[di] == key || s.hotCounts[donors[di]] >= s.hotCounts[key]) {
			di++
		}
		if di >= len(donors) {
			break
		}
		donor := donors[di]
		di++
		// While the breaker is open (persistent contention) the key is
		// skipped without burning any backoff cycles; half-open trials
		// re-probe the swap path once the cooldown elapses.
		if err := s.breaker.Allow(float64(s.core.Cycles())); err != nil {
			res.BreakerSkips++
			continue
		}
		// A concurrent reader can pin either line set mid-swap; back off
		// (burning serving-core cycles) and retry, bounded so one hot key
		// cannot stall the whole epoch's pass.
		moved := false
		backoff := firstBackoff
		for a := 0; a < attempts; a++ {
			if s.faults.Fire(faults.MigrationContention) {
				res.Retries++
				s.breaker.Record(float64(s.core.Cycles()), false)
				s.core.AddCycles(backoff)
				backoff *= 2
				continue
			}
			s.swapValueStorage(key, donor)
			s.breaker.Record(float64(s.core.Cycles()), true)
			moved = true
			break
		}
		if !moved {
			res.Skipped++
			continue
		}
		res.Migrated++
	}
	res.Cycles = s.core.Cycles() - start
	sc := s.cfg.ServingCore
	s.ctrMigrated.Add(sc, uint64(res.Migrated))
	s.ctrRetries.Add(sc, uint64(res.Retries))
	s.ctrSkipped.Add(sc, uint64(res.Skipped))
	s.ctrBrkSkips.Add(sc, uint64(res.BreakerSkips))
	if res.Migrated == 0 && res.Skipped > 0 {
		return res, fmt.Errorf("%w: all %d candidate keys skipped", ErrContended, res.Skipped)
	}
	if res.Migrated == 0 && res.BreakerSkips > 0 {
		return res, fmt.Errorf("%w: migration pass skipped %d keys", overload.ErrBreakerOpen, res.BreakerSkips)
	}
	return res, nil
}

func min64(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// swapValueStorage exchanges the backing lines of two keys, charging the
// copy traffic (read both, write both — a line-by-line exchange through
// registers) to the serving core.
func (s *Store) swapValueStorage(a, b uint64) {
	la := s.valueLines(a)
	lb := s.valueLines(b)
	for i := range la {
		s.core.Read(la[i])
		s.core.Read(lb[i])
		s.core.Write(la[i])
		s.core.Write(lb[i])
	}
	// Exchange the address mappings.
	lp := s.linesPerValue()
	for i := 0; i < lp; i++ {
		ai := int(a)*lp + i
		bi := int(b)*lp + i
		s.valueAddr[ai], s.valueAddr[bi] = s.valueAddr[bi], s.valueAddr[ai]
	}
}
