package overload

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// tripOpen drives a breaker to the Open state at clock 0 by filling its
// window with failures.
func tripOpen(t *testing.T, b *Breaker) {
	t.Helper()
	for i := 0; i < b.cfg.Window; i++ {
		if err := b.Allow(0); err != nil {
			t.Fatalf("closed breaker refused call %d: %v", i, err)
		}
		b.Record(0, false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after failure storm = %v, want open", b.State())
	}
}

func TestBreakerHalfOpenInflightCap(t *testing.T) {
	b, err := NewBreaker(BreakerConfig{
		Window: 4, Cooldown: 100, HalfOpenProbes: 2, HalfOpenMaxInflight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tripOpen(t, b)

	// Cooldown elapsed: exactly HalfOpenMaxInflight trials pass, the rest
	// fail fast until an outcome is recorded.
	now := 200.0
	for i := 0; i < 2; i++ {
		if err := b.Allow(now); err != nil {
			t.Fatalf("half-open trial %d refused: %v", i, err)
		}
	}
	if err := b.Allow(now); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("third in-flight trial passed (err=%v), cap not enforced", err)
	}
	// Cancel gives a slot back without touching the outcome window.
	b.Cancel()
	if err := b.Allow(now); err != nil {
		t.Fatalf("slot not freed after Cancel: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after Cancel = %v, want still half-open", b.State())
	}
	// Recording an outcome frees a slot.
	b.Record(now, true)
	if err := b.Allow(now); err != nil {
		t.Fatalf("slot not freed after Record: %v", err)
	}
	// Two successes close the breaker; further calls pass unconditionally.
	b.Record(now, true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after %d successes", b.State(), 2)
	}
	for i := 0; i < 5; i++ {
		if err := b.Allow(now); err != nil {
			t.Fatalf("closed breaker refused call %d: %v", i, err)
		}
		b.Record(now, true)
	}
}

func TestBreakerHalfOpenUnlimitedByDefault(t *testing.T) {
	// Zero HalfOpenMaxInflight preserves the legacy contract every
	// sequential simulator call site was written against: during
	// half-open, every Allow passes.
	b, err := NewBreaker(BreakerConfig{Window: 4, Cooldown: 100, HalfOpenProbes: 3})
	if err != nil {
		t.Fatal(err)
	}
	tripOpen(t, b)
	for i := 0; i < 10; i++ {
		if err := b.Allow(200); err != nil {
			t.Fatalf("legacy half-open call %d refused: %v", i, err)
		}
	}
}

func TestBreakerRejectsNegativeInflightCap(t *testing.T) {
	if _, err := NewBreaker(BreakerConfig{HalfOpenMaxInflight: -1}); err == nil {
		t.Fatal("negative HalfOpenMaxInflight accepted")
	}
}

// TestSyncBreakerHalfOpenToClosedConcurrent is the regression test for the
// half-open→closed transition under concurrent probes: many goroutines
// hammer a tripped breaker after its cooldown; the in-flight cap must keep
// simultaneous trials at or below the configured probe count, and the
// breaker must still converge to Closed when the trials succeed.
func TestSyncBreakerHalfOpenToClosedConcurrent(t *testing.T) {
	const probes = 3
	sb, err := NewSyncBreaker(BreakerConfig{
		Window: 4, FailureThreshold: 0.5, Cooldown: 100,
		HalfOpenProbes: probes, HalfOpenMaxInflight: probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Trip it.
	for i := 0; i < 4; i++ {
		if err := sb.Allow(0); err != nil {
			t.Fatalf("closed breaker refused call %d: %v", i, err)
		}
		sb.Record(0, false)
	}
	if sb.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", sb.State())
	}

	var allowed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := sb.Allow(200); err != nil {
					continue // rejected: open, or probe slots exhausted
				}
				allowed.Add(1)
				sb.Record(200, true)
			}
		}()
	}
	wg.Wait()

	if sb.State() != BreakerClosed {
		t.Fatalf("state after successful concurrent probing = %v, want closed", sb.State())
	}
	if allowed.Load() < probes {
		t.Fatalf("only %d calls passed, need at least the %d closing probes", allowed.Load(), probes)
	}
	st := sb.b.Stats()
	if st.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want exactly 1", st.Recoveries)
	}
	if st.Trips != 1 {
		t.Fatalf("trips = %d, want 1 (no reopen during successful probing)", st.Trips)
	}
}
