package overload

import "sync"

// SyncBreaker is a mutex-guarded Breaker for call sites outside the
// single-threaded simulated machine — the slicekvsd daemon's connection
// handlers hit one breaker per shard from many goroutines at once. The
// automaton and its statistics are exactly the wrapped Breaker's; only the
// locking discipline differs. A nil *SyncBreaker, like a nil *Breaker,
// allows everything.
//
// Concurrent half-open behaviour is where the wrapper earns its keep: with
// BreakerConfig.HalfOpenMaxInflight set, at most that many trial calls are
// in flight at once during recovery probing, so a thundering herd of
// connection goroutines cannot re-flood a resource the breaker just
// finished protecting.
type SyncBreaker struct {
	mu sync.Mutex
	b  *Breaker
}

// NewSyncBreaker builds a concurrency-safe breaker. Unlike the raw
// Breaker's zero default, HalfOpenMaxInflight defaults to HalfOpenProbes
// (after that field's own defaulting) — a concurrent caller that wants
// unlimited half-open admission must say so explicitly.
func NewSyncBreaker(cfg BreakerConfig) (*SyncBreaker, error) {
	if cfg.HalfOpenMaxInflight == 0 {
		if cfg.HalfOpenProbes == 0 {
			cfg.HalfOpenMaxInflight = 3 // mirror the HalfOpenProbes default
		} else {
			cfg.HalfOpenMaxInflight = cfg.HalfOpenProbes
		}
	}
	b, err := NewBreaker(cfg)
	if err != nil {
		return nil, err
	}
	return &SyncBreaker{b: b}, nil
}

// Allow decides whether the protected operation may run at clock reading
// now; see Breaker.Allow. Nil-safe and safe for concurrent use.
func (s *SyncBreaker) Allow(now float64) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Allow(now)
}

// Record reports the outcome of an operation Allow passed through.
// Nil-safe and safe for concurrent use.
func (s *SyncBreaker) Record(now float64, success bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b.Record(now, success)
}

// Cancel withdraws a call Allow passed through without recording an
// outcome; see Breaker.Cancel. Nil-safe and safe for concurrent use.
func (s *SyncBreaker) Cancel() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b.Cancel()
}

// State reports the current automaton state (closed for nil).
func (s *SyncBreaker) State() BreakerState {
	if s == nil {
		return BreakerClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.State()
}
