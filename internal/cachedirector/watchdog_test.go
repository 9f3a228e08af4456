package cachedirector

import (
	"errors"
	"testing"

	"sliceaware/internal/chash"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/faults"
	"sliceaware/internal/telemetry"
)

// Satellite coverage: every Config rejection path at construction, as a
// table (complements the spot checks in TestConfigValidation).
func TestConfigValidationTable(t *testing.T) {
	m := newMachine(t)
	wrongSlices, err := chash.ForProfileSlices(4)
	if err != nil {
		t.Fatal(err)
	}
	rightSlices, err := chash.ForProfileSlices(8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{}, true},
		{"aligned headroom", Config{MaxHeadroom: 512}, true},
		{"unaligned headroom", Config{MaxHeadroom: 100}, false},
		{"negative headroom", Config{MaxHeadroom: -64}, false},
		{"headroom at encoding limit", Config{MaxHeadroom: 960}, true},
		{"headroom beyond 4-bit encoding", Config{MaxHeadroom: 1024}, false},
		{"aligned offset", Config{TargetOffset: 128}, true},
		{"unaligned offset", Config{TargetOffset: 32}, false},
		{"negative offset", Config{TargetOffset: -64}, false},
		{"profile hash matching slice count", Config{Hash: rightSlices}, true},
		{"profile hash wrong slice count", Config{Hash: wrongSlices}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(m, c.cfg)
			if (err == nil) != c.ok {
				t.Fatalf("New(%+v) err = %v, want ok=%v", c.cfg, err, c.ok)
			}
		})
	}
}

func TestInitPoolHeadroomSentinel(t *testing.T) {
	m := newMachine(t)
	d := newDirector(t, m)
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{Name: "small", Mbufs: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = d.InitPool(pool)
	if !errors.Is(err, ErrInsufficientHeadroom) {
		t.Fatalf("InitPool error %v does not wrap ErrInsufficientHeadroom", err)
	}
}

func TestWatchdogConfigValidation(t *testing.T) {
	d := newDirector(t, newMachine(t))
	if err := d.EnableWatchdog(WatchdogConfig{CheckEvery: -1}); err == nil {
		t.Error("negative CheckEvery accepted")
	}
	if err := d.EnableWatchdog(WatchdogConfig{MinHealthy: 1.5}); err == nil {
		t.Error("MinHealthy above 1 accepted")
	}
	if err := d.EnableWatchdog(WatchdogConfig{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if d.Mode() != ModeActive {
		t.Errorf("fresh watchdog mode = %v, want active", d.Mode())
	}
}

// watchdogFixture builds a director over pool-backed mbufs with a
// per-packet probing watchdog, using hash as the believed mapping. The
// director is instrumented, so tests count probes and mode transitions
// through its telemetry.
func watchdogFixture(t *testing.T, hash chash.Hash) (*Director, *dpdk.Mempool) {
	t.Helper()
	m := newMachine(t)
	d, err := New(m, Config{Hash: hash})
	if err != nil {
		t.Fatal(err)
	}
	d.SetTelemetry(telemetry.New(telemetry.Config{}))
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "wd", Mbufs: 64, HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableWatchdog(WatchdogConfig{
		CheckEvery: 1, Window: 8, MinHealthy: 0.75, Probes: 8, RecoverAfter: 4,
	}); err != nil {
		t.Fatal(err)
	}
	return d, pool
}

// probes reports the watchdog's verifications and how many of them
// contradicted the believed mapping.
func probes(d *Director) (total, misses uint64) {
	reg := d.tele.Registry()
	return reg.Counter("cachedirector_watchdog_probes_total", "").Value(),
		reg.CounterL("cachedirector_watchdog_probes_total", "", `outcome="miss"`).Value()
}

// transitions counts the timeline events the watchdog emitted for one
// transition ("degraded" or "recovered").
func transitions(d *Director, name string) int {
	n := 0
	for _, ev := range d.tele.Timeline().Events() {
		if ev.Name == "watchdog_"+name {
			n++
		}
	}
	return n
}

func TestWatchdogStaysActiveOnCorrectProfile(t *testing.T) {
	d, pool := watchdogFixture(t, nil) // believed mapping == silicon
	mb := pool.Get()
	for i := 0; i < 32; i++ {
		d.Prepare(mb, i%8)
	}
	total, misses := probes(d)
	if total != 32 {
		t.Errorf("probes = %d, want 32", total)
	}
	if misses != 0 {
		t.Errorf("probe misses = %d on a correct profile", misses)
	}
	if n := transitions(d, "degraded"); d.Mode() != ModeActive || n != 0 {
		t.Errorf("mode %v, degradations %d; wanted to stay active", d.Mode(), n)
	}
}

func TestWatchdogDegradesAndRecovers(t *testing.T) {
	d, pool := watchdogFixture(t, nil)
	truth := d.hash
	// Swap in a fully wrong profile: every believed slice contradicts the
	// polled one, as if a foreign die's recovered hash were deployed.
	wrong, err := faults.NewMispredictedHash(truth, 7, 1)
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
	if n := transitions(d, "degraded"); n != 1 {
		t.Errorf("degradations = %d, want 1", n)
	}
	if _, misses := probes(d); misses == 0 {
		t.Error("degraded without a probe miss")
	}

	// Degraded placement is plain DPDK default, not the (wrong) table.
	d.Prepare(mb, 3)
	if h := mb.Headroom(); h != dpdk.DefaultHeadroom {
		t.Errorf("degraded headroom = %d, want default %d", h, dpdk.DefaultHeadroom)
	}

	// The profile starts predicting correctly again (operator fixed it);
	// consecutive verified probes must re-enable slice-aware placement.
	if err := wrong.SetRate(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; d.Mode() == ModeDegraded && i < 64; i++ {
		d.Prepare(mb, i%8)
	}
	if d.Mode() != ModeActive {
		t.Fatal("watchdog never recovered")
	}
	if n := transitions(d, "recovered"); n != 1 {
		t.Errorf("recoveries = %d, want 1", n)
	}

	// Back in active mode the table applies again.
	d.Prepare(mb, 3)
	if h := mb.Headroom(); h != d.HeadroomFor(mb, 3) {
		t.Errorf("recovered headroom = %d, want table value %d", h, d.HeadroomFor(mb, 3))
	}
}
