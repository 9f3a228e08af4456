package cachedirector

import (
	"testing"

	"sliceaware/internal/dpdk"
	"sliceaware/internal/faults"
	"sliceaware/internal/overload"
)

// ladderFixture builds a director over a pool with an armed ladder tuned
// for short tests (two observations per transition).
func ladderFixture(t *testing.T) (*Director, *dpdk.Mempool) {
	t.Helper()
	m := newMachine(t)
	d, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "ladder", Mbufs: 16, HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableLadder(overload.LadderConfig{EscalateAfter: 2, RecoverAfter: 2}); err != nil {
		t.Fatal(err)
	}
	return d, pool
}

func TestEnableLadderValidation(t *testing.T) {
	d := newDirector(t, newMachine(t))
	if err := d.EnableLadder(overload.LadderConfig{MaxLevel: 5}); err == nil {
		t.Error("ladder deeper than the director's rungs accepted")
	}
	if err := d.EnableLadder(overload.LadderConfig{}); err != nil {
		t.Fatalf("default ladder rejected: %v", err)
	}
	if lvl := d.CurrentLevel(); lvl != LevelFull {
		t.Errorf("fresh ladder level = %v, want full", lvl)
	}
}

// The ladder must walk full → header-only → passthrough under sustained
// pressure and back up under calm, and each rung must dispatch Prepare
// correctly: header-only keeps the table placement but drops the driver
// charge, passthrough reverts to plain DPDK headroom.
func TestLadderLevelsDispatchPrepare(t *testing.T) {
	d, pool := ladderFixture(t)
	mb := pool.Get()
	core := d.machine.Core(3)

	prep := func() (headroom int, cycles uint64) {
		before := core.Cycles()
		d.Prepare(mb, 3)
		return mb.Headroom(), core.Cycles() - before
	}

	// Level 0: table headroom plus the per-packet charge.
	if hr, cyc := prep(); hr != d.HeadroomFor(mb, 3) || cyc != PrepareCycles {
		t.Errorf("full: headroom %d (want %d), cycles %d (want %d)",
			hr, d.HeadroomFor(mb, 3), cyc, PrepareCycles)
	}

	// Two high-pressure observations escalate one rung.
	d.ObservePressure(0, 0.9)
	d.ObservePressure(0, 0.9)
	if lvl := d.CurrentLevel(); lvl != LevelHeaderOnly {
		t.Fatalf("level after escalation = %v, want header-only", lvl)
	}
	if hr, cyc := prep(); hr != d.HeadroomFor(mb, 3) || cyc != 0 {
		t.Errorf("header-only: headroom %d (want table %d), cycles %d (want 0)",
			hr, d.HeadroomFor(mb, 3), cyc)
	}

	d.ObservePressure(0, 0.9)
	d.ObservePressure(0, 0.9)
	if lvl := d.CurrentLevel(); lvl != LevelPassthrough {
		t.Fatalf("level after second escalation = %v, want passthrough", lvl)
	}
	if hr, cyc := prep(); hr != dpdk.DefaultHeadroom || cyc != 0 {
		t.Errorf("passthrough: headroom %d (want default %d), cycles %d (want 0)",
			hr, dpdk.DefaultHeadroom, cyc)
	}

	// Pressure inside the hysteresis band moves nothing.
	d.ObservePressure(0, 0.4)
	d.ObservePressure(0, 0.4)
	if lvl := d.CurrentLevel(); lvl != LevelPassthrough {
		t.Errorf("band observations moved the ladder to %v", lvl)
	}

	// Calm observations recover one rung at a time, all the way back.
	for i := 0; i < 4; i++ {
		d.ObservePressure(0, 0.05)
	}
	if lvl := d.CurrentLevel(); lvl != LevelFull {
		t.Fatalf("level after recovery = %v, want full", lvl)
	}
	if hr, cyc := prep(); hr != d.HeadroomFor(mb, 3) || cyc != PrepareCycles {
		t.Errorf("recovered full: headroom %d, cycles %d", hr, cyc)
	}
	if st := d.Ladder().Stats(); st.Escalations != 2 || st.Recoveries != 2 {
		t.Errorf("ladder stats %+v, want 2 escalations / 2 recoveries", st)
	}
}

// A watchdog in degraded mode overrides everything: the effective level is
// passthrough no matter what the ladder says.
func TestWatchdogDegradedForcesPassthrough(t *testing.T) {
	d, pool := watchdogFixture(t, nil)
	if err := d.EnableLadder(overload.LadderConfig{}); err != nil {
		t.Fatal(err)
	}
	wrong, err := faults.NewMispredictedHash(d.hash, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.hash = wrong
	mb := pool.Get()
	for i := 0; d.Mode() == ModeActive && i < 64; i++ {
		d.Prepare(mb, i%8)
	}
	if d.Mode() != ModeDegraded {
		t.Fatal("watchdog never degraded")
	}
	if lvl := d.CurrentLevel(); lvl != LevelPassthrough {
		t.Errorf("degraded level = %v, want passthrough", lvl)
	}
	d.Prepare(mb, 3)
	if h := mb.Headroom(); h != dpdk.DefaultHeadroom {
		t.Errorf("degraded headroom = %d, want default %d", h, dpdk.DefaultHeadroom)
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{
		LevelFull: "full", LevelHeaderOnly: "header-only", LevelPassthrough: "passthrough",
		Level(9): "Level(9)",
	} {
		if got := lvl.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(lvl), got, want)
		}
	}
}
