package overload

import (
	"errors"
	"testing"
)

func TestSentinelFamily(t *testing.T) {
	for _, err := range []error{ErrAQM, ErrShed, ErrBreakerOpen} {
		if !errors.Is(err, ErrOverload) {
			t.Errorf("%v does not wrap ErrOverload", err)
		}
	}
	if errors.Is(ErrAQM, ErrShed) || errors.Is(ErrShed, ErrBreakerOpen) {
		t.Error("sibling sentinels must not match each other")
	}
}

func TestCoDelBurstTolerance(t *testing.T) {
	c, err := NewCoDel(CoDelConfig{TargetNs: 10_000, IntervalNs: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	// Sojourn above target but for less than one interval: a burst, every
	// packet admitted.
	now := 0.0
	for i := 0; i < 5; i++ {
		if err := c.Admit(now, 10, 64, 20_000); err != nil {
			t.Fatalf("burst packet %d dropped at t=%v: %v", i, now, err)
		}
		now += 10_000
	}
	// Sojourn dips below target: episode state resets.
	if err := c.Admit(now, 10, 64, 1_000); err != nil {
		t.Fatalf("below-target packet dropped: %v", err)
	}
	if c.dropping || c.firstAboveNs != 0 {
		t.Error("episode state not reset after dip below target")
	}
}

func TestCoDelStandingQueueDrops(t *testing.T) {
	c, err := NewCoDel(CoDelConfig{TargetNs: 10_000, IntervalNs: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	// Hold sojourn above target past a full interval: dropping must start
	// and the control law must space further drops at shrinking gaps.
	drops := 0
	now := 0.0
	for i := 0; i < 400; i++ {
		if err := c.Admit(now, 10, 64, 50_000); err != nil {
			if !errors.Is(err, ErrAQM) {
				t.Fatalf("drop error %v does not wrap ErrAQM", err)
			}
			drops++
		}
		now += 1_000
	}
	if drops == 0 {
		t.Fatal("standing queue never triggered CoDel dropping state")
	}
	// Deeper into the episode, the inverse-sqrt law should have produced
	// more than one drop.
	if drops < 2 {
		t.Errorf("control law produced only %d drops over 3 intervals", drops)
	}
}

func TestCoDelNeverPunishesShortQueue(t *testing.T) {
	c, _ := NewCoDel(CoDelConfig{})
	now := 0.0
	for i := 0; i < 1000; i++ {
		if err := c.Admit(now, 1, 64, 1e9); err != nil {
			t.Fatal("CoDel dropped with ≤1 packet queued")
		}
		now += 1_000
	}
}

func TestCoDelResetClearsEpisode(t *testing.T) {
	c, _ := NewCoDel(CoDelConfig{TargetNs: 10_000, IntervalNs: 100_000})
	now := 0.0
	for i := 0; i < 400; i++ {
		_ = c.Admit(now, 10, 64, 50_000)
		now += 1_000
	}
	if !c.dropping {
		t.Fatal("test setup: expected dropping state")
	}
	c.Reset()
	if c.dropping || c.firstAboveNs != 0 || c.dropNextNs != 0 || c.count != 0 {
		t.Error("Reset left episode state behind")
	}
	// A fresh run starting at t=0 must get its full grace interval again.
	if err := c.Admit(0, 10, 64, 50_000); err != nil {
		t.Error("first packet after Reset dropped — stale clock anchor")
	}
}

func TestREDRegimes(t *testing.T) {
	r, err := NewRED(REDConfig{MinFrac: 0.2, MaxFrac: 0.8, MaxP: 0.5, Weight: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Weight 1 makes avg track instantaneous occupancy exactly.
	if err := r.Admit(0, 5, 100, 0); err != nil {
		t.Errorf("below min threshold must always admit: %v", err)
	}
	if err := r.Admit(0, 90, 100, 0); !errors.Is(err, ErrAQM) {
		t.Errorf("above max threshold must force-drop, got %v", err)
	}
	// In the band: probabilistic, so count over many trials.
	drops := 0
	for i := 0; i < 2000; i++ {
		if r.Admit(0, 50, 100, 0) != nil {
			drops++
		}
	}
	// avg = 0.5, p = 0.5*(0.5-0.2)/0.6 = 0.25 → expect ~500 of 2000.
	if drops < 300 || drops > 700 {
		t.Errorf("band drop count %d far from expected ~500/2000", drops)
	}
}

func TestREDDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		r, _ := NewRED(REDConfig{Seed: seed})
		out := make([]bool, 500)
		for i := range out {
			out[i] = r.Admit(0, 50, 100, 0) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
}

func TestShedderThresholdOrdering(t *testing.T) {
	s, err := NewShedder(ShedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Classes() != DefaultClasses {
		t.Fatalf("default classes = %d, want %d", s.Classes(), DefaultClasses)
	}
	for c := 1; c < s.Classes(); c++ {
		if s.Threshold(c) <= s.Threshold(c-1) {
			t.Errorf("threshold(%d)=%v not above threshold(%d)=%v",
				c, s.Threshold(c), c-1, s.Threshold(c-1))
		}
	}
}

func TestShedderOrderedSheddingUnderRampedPressure(t *testing.T) {
	s, _ := NewShedder(ShedConfig{})
	// Ramp pressure 0→1; each class should shed strictly less often than
	// the class below it.
	const steps = 1000
	for i := 0; i < steps; i++ {
		p := float64(i) / float64(steps-1)
		for c := 0; c < s.Classes(); c++ {
			s.Admit(c, p)
		}
	}
	offered, shed := s.Stats()
	for c := 0; c < s.Classes(); c++ {
		if offered[c] != steps {
			t.Fatalf("class %d offered %d, want %d", c, offered[c], steps)
		}
	}
	for c := 1; c < s.Classes(); c++ {
		if shed[c] >= shed[c-1] {
			t.Errorf("class %d shed %d, not strictly below class %d shed %d",
				c, shed[c], c-1, shed[c-1])
		}
	}
}

func TestShedderPressureFoldsSojourn(t *testing.T) {
	s, _ := NewShedder(ShedConfig{FullSojournNs: 100_000})
	if got := s.Pressure(0.1, 50_000); got != 0.5 {
		t.Errorf("pressure(0.1 occ, 50µs sojourn) = %v, want 0.5", got)
	}
	if got := s.Pressure(0.7, 10_000); got != 0.7 {
		t.Errorf("occupancy should dominate: got %v, want 0.7", got)
	}
	if got := s.Pressure(0, 1e9); got != 1 {
		t.Errorf("pressure must clamp to 1, got %v", got)
	}
}

func TestShedderClampsClass(t *testing.T) {
	s, _ := NewShedder(ShedConfig{Classes: 4})
	s.Admit(-3, 1)
	s.Admit(99, 0)
	offered, shed := s.Stats()
	if offered[0] != 1 || shed[0] != 1 {
		t.Errorf("negative class not clamped to 0: offered=%v shed=%v", offered, shed)
	}
	if offered[3] != 1 || shed[3] != 0 {
		t.Errorf("oversized class not clamped to top: offered=%v shed=%v", offered, shed)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b, err := NewBreaker(BreakerConfig{Window: 4, FailureThreshold: 0.5, Cooldown: 100, HalfOpenProbes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0 // Allow's refusals, counted here
	allow := func(now float64) error {
		err := b.Allow(now)
		if errors.Is(err, ErrBreakerOpen) {
			rejected++
		}
		return err
	}
	now := 0.0
	// Fill the window with failures: trips exactly when the window is full
	// and the fraction crosses the threshold.
	for i := 0; i < 4; i++ {
		if err := allow(now); err != nil {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Record(now, false)
		now++
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after failure storm = %v, want open", b.State())
	}
	// During cooldown: fail fast.
	if err := allow(now); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed a call, err=%v", err)
	}
	if !errors.Is(ErrBreakerOpen, ErrOverload) {
		t.Error("ErrBreakerOpen must wrap ErrOverload")
	}
	// After cooldown: half-open trial.
	now += 200
	if err := allow(now); err != nil {
		t.Fatalf("breaker did not half-open after cooldown: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// A failed trial reopens.
	b.Record(now, false)
	if b.State() != BreakerOpen {
		t.Fatalf("failed trial left state %v, want open", b.State())
	}
	// Reopened: cooldown restarts from the trial failure.
	if err := allow(now + 50); !errors.Is(err, ErrBreakerOpen) {
		t.Error("cooldown was not re-stamped on half-open failure")
	}
	// Recover: two consecutive successful trials close it.
	now += 300
	for i := 0; i < 2; i++ {
		if err := allow(now); err != nil {
			t.Fatalf("half-open trial %d refused: %v", i, err)
		}
		b.Record(now, true)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after recovery = %v, want closed", b.State())
	}
	st := b.Stats()
	if st.Trips != 2 || st.Recoveries != 1 || rejected != 2 {
		t.Errorf("stats %+v and %d rejected, want 2 trips / 1 recovery / 2 rejected", st, rejected)
	}
	// The window was reset on close: old failures must not linger.
	b.Record(now, false)
	if b.State() != BreakerClosed {
		t.Error("single failure after recovery tripped — window not reset")
	}
}

func TestBreakerSlidingWindow(t *testing.T) {
	b, _ := NewBreaker(BreakerConfig{Window: 4, FailureThreshold: 0.75})
	// 2 of 4 failures: below the 0.75 threshold, stays closed.
	outcomes := []bool{false, true, false, true, true, true}
	for i, ok := range outcomes {
		b.Record(float64(i), ok)
	}
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped below threshold (stale outcomes not evicted?)")
	}
	// Three more failures: the last 4 outcomes are now 3 failures and 1
	// success → 0.75 ≥ threshold: trips.
	b.Record(6, false)
	b.Record(7, false)
	b.Record(8, false)
	if b.State() != BreakerOpen {
		t.Fatal("breaker failed to trip once window fraction reached threshold")
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if err := b.Allow(0); err != nil {
		t.Error("nil breaker must allow")
	}
	b.Record(0, false) // must not panic
	if b.State() != BreakerClosed {
		t.Error("nil breaker must read closed")
	}
	if b.Stats() != (BreakerStats{}) {
		t.Error("nil breaker stats must be zero")
	}
}

func TestLadderHysteresis(t *testing.T) {
	l, err := NewLadder(LadderConfig{MaxLevel: 2, EscalateFrac: 0.6, RecoverFrac: 0.2, EscalateAfter: 4, RecoverAfter: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Three high observations: not enough.
	for i := 0; i < 3; i++ {
		l.Observe(0.9)
	}
	if l.Level() != 0 {
		t.Fatal("escalated before EscalateAfter consecutive observations")
	}
	// A band observation resets the run.
	l.Observe(0.4)
	for i := 0; i < 3; i++ {
		l.Observe(0.9)
	}
	if l.Level() != 0 {
		t.Fatal("band observation did not reset the escalation run")
	}
	// Four consecutive: one step.
	if d := l.Observe(0.9); d != 1 {
		t.Fatalf("4th consecutive high observation returned %d, want 1", d)
	}
	if l.Level() != 1 {
		t.Fatalf("level = %d, want 1", l.Level())
	}
	// Another four: step to the max, then stick there.
	for i := 0; i < 12; i++ {
		l.Observe(0.9)
	}
	if l.Level() != 2 {
		t.Fatalf("level = %d, want max 2", l.Level())
	}
	// Recovery needs the longer calm run, one step at a time.
	for i := 0; i < 7; i++ {
		l.Observe(0.1)
	}
	if l.Level() != 2 {
		t.Fatal("recovered before RecoverAfter consecutive calm observations")
	}
	if d := l.Observe(0.1); d != -1 {
		t.Fatalf("8th calm observation returned %d, want -1", d)
	}
	for i := 0; i < 8; i++ {
		l.Observe(0.1)
	}
	if l.Level() != 0 {
		t.Fatalf("level = %d after full calm run, want 0", l.Level())
	}
	st := l.Stats()
	if st.Escalations != 2 || st.Recoveries != 2 {
		t.Errorf("stats %+v, want 2 escalations / 2 recoveries", st)
	}
}

func TestLadderFloor(t *testing.T) {
	l, _ := NewLadder(LadderConfig{MaxLevel: 2, EscalateAfter: 4, RecoverAfter: 4})
	l.SetFloor(1)
	if l.Level() != 1 {
		t.Fatalf("floor not applied: level %d, want 1", l.Level())
	}
	// Calm observations cannot recover below the floor.
	for i := 0; i < 100; i++ {
		l.Observe(0.0)
	}
	if l.Level() != 1 {
		t.Fatalf("effective level %d dropped below floor", l.Level())
	}
	l.SetFloor(0)
	if l.Level() != 0 {
		t.Fatalf("releasing floor left level %d, want 0", l.Level())
	}
	// Clamping.
	l.SetFloor(99)
	if l.Level() != 2 {
		t.Fatalf("oversized floor not clamped: level %d, want 2", l.Level())
	}
}

func TestLadderNilSafe(t *testing.T) {
	var l *Ladder
	if l.Observe(1) != 0 || l.Level() != 0 {
		t.Error("nil ladder must be inert")
	}
	l.SetFloor(2) // must not panic
	if l.Stats() != (LadderStats{}) {
		t.Error("nil ladder stats must be zero")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCoDel(CoDelConfig{TargetNs: -1}); err == nil {
		t.Error("negative codel target accepted")
	}
	if _, err := NewRED(REDConfig{MinFrac: 0.9, MaxFrac: 0.5}); err == nil {
		t.Error("inverted red thresholds accepted")
	}
	if _, err := NewShedder(ShedConfig{BaseFrac: 0.9, MaxFrac: 0.5}); err == nil {
		t.Error("inverted shed thresholds accepted")
	}
	if _, err := NewBreaker(BreakerConfig{Window: -1}); err == nil {
		t.Error("negative breaker window accepted")
	}
	if _, err := NewLadder(LadderConfig{RecoverFrac: 0.8, EscalateFrac: 0.5}); err == nil {
		t.Error("inverted ladder fractions accepted")
	}
}
