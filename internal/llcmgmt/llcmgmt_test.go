package llcmgmt

import (
	"errors"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachesim"
	"sliceaware/internal/cat"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/nfv"
	"sliceaware/internal/overload"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRegistry(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func scanChain(t *testing.T) *nfv.Chain {
	t.Helper()
	c, err := nfv.NewChain("scan", nfv.NewPayloadScanner())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRegisterValidation pins the registry's claim checking: core
// ownership, CAT budget interaction (overlap between tenants, swallowing
// the DDIO ways, contiguity) and the socket-wide DDIO way budget.
func TestRegisterValidation(t *testing.T) {
	// base is pre-registered in every case: latency-critical, cores 0-1,
	// a static 4-way budget at ways 4..7, one DDIO way.
	base := TenantConfig{
		Name: "base", Class: LatencyCritical, Cores: []int{0, 1},
		CATWays: cachesim.MaskOfWayRange(4, 8), DDIOWays: 1,
	}
	cases := []struct {
		name    string
		cfg     TenantConfig
		wantErr error // nil = accepted
	}{
		{name: "valid disjoint tenant",
			cfg: TenantConfig{Name: "ok", Cores: []int{4, 5}, CATWays: cachesim.MaskOfWayRange(8, 12)}},
		{name: "valid without static budget",
			cfg: TenantConfig{Name: "ok2", Cores: []int{6}}},
		{name: "empty name",
			cfg: TenantConfig{Cores: []int{4}}, wantErr: ErrTenant},
		{name: "duplicate name",
			cfg: TenantConfig{Name: "base", Cores: []int{4}}, wantErr: ErrTenant},
		{name: "no cores",
			cfg: TenantConfig{Name: "t", Cores: nil}, wantErr: ErrTenant},
		{name: "core out of range",
			cfg: TenantConfig{Name: "t", Cores: []int{8}}, wantErr: ErrTenant},
		{name: "core listed twice",
			cfg: TenantConfig{Name: "t", Cores: []int{4, 4}}, wantErr: ErrTenant},
		{name: "core owned by another tenant",
			cfg: TenantConfig{Name: "t", Cores: []int{1, 2}}, wantErr: ErrCoreConflict},
		{name: "CAT budget overlaps another tenant's",
			cfg:     TenantConfig{Name: "t", Cores: []int{4}, CATWays: cachesim.MaskOfWayRange(6, 10)},
			wantErr: ErrMaskOverlap},
		{name: "CAT budget swallows the DDIO ways",
			cfg:     TenantConfig{Name: "t", Cores: []int{4}, CATWays: cachesim.MaskOfWayRange(16, 20)},
			wantErr: cat.ErrDDIOProtected},
		{name: "CAT budget not contiguous",
			cfg:     TenantConfig{Name: "t", Cores: []int{4}, CATWays: 0b101},
			wantErr: errAny},
		{name: "DDIO request over socket budget",
			cfg:     TenantConfig{Name: "t", Cores: []int{4}, DDIOWays: 2},
			wantErr: ErrDDIOBudget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRegistry(t)
			if _, err := r.Register(base); err != nil {
				t.Fatalf("base tenant rejected: %v", err)
			}
			_, err := r.Register(tc.cfg)
			switch {
			case tc.wantErr == nil && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.wantErr == errAny && err == nil:
				t.Error("accepted, want an error")
			case tc.wantErr != nil && tc.wantErr != errAny && !errors.Is(err, tc.wantErr):
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr != nil && len(r.tenants) != 1 {
				t.Errorf("rejected tenant was registered anyway (%d tenants)", len(r.tenants))
			}
		})
	}
}

func TestRegisterProgramsStaticBudget(t *testing.T) {
	r := newTestRegistry(t)
	mask := cachesim.MaskOfWayRange(0, 6)
	tn, err := r.Register(TenantConfig{Name: "t", Cores: []int{2, 3}, CATWays: mask})
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []int{2, 3} {
		cos, _ := r.cat.COSOf(core)
		if cos != tn.cos {
			t.Errorf("core %d in COS%d, want COS%d", core, cos, tn.cos)
		}
	}
	got, _ := r.cat.Mask(tn.cos)
	if got != mask {
		t.Errorf("COS%d mask = %#x, want %#x", tn.cos, uint64(got), uint64(mask))
	}
	if tn.appliedCAT != mask {
		t.Errorf("applied CAT mask = %#x, want %#x", uint64(tn.appliedCAT), uint64(mask))
	}
}

func TestAttachNet(t *testing.T) {
	r := newTestRegistry(t)
	tn, err := r.Register(TenantConfig{
		Name: "net", Cores: []int{2, 3}, Flows: []uint64{7, 8, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	dut, err := r.AttachNet(tn, NetWorkloadConfig{Chain: scanChain(t), Steering: dpdk.FlowDirector})
	if err != nil {
		t.Fatal(err)
	}
	if dut.CoreOffset() != 2 {
		t.Errorf("core offset = %d, want 2", dut.CoreOffset())
	}
	if tn.Port().Queues() != 2 {
		t.Errorf("queues = %d, want 2", tn.Port().Queues())
	}
	if got := tn.Port().FlowRules(); got != 3 {
		t.Errorf("flow rules = %d, want 3", got)
	}
	if _, err := r.AttachNet(tn, NetWorkloadConfig{Chain: scanChain(t)}); !errors.Is(err, ErrWorkload) {
		t.Errorf("second net workload: err = %v, want ErrWorkload", err)
	}

	gap, err := r.Register(TenantConfig{Name: "gap", Cores: []int{5, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AttachNet(gap, NetWorkloadConfig{Chain: scanChain(t)}); !errors.Is(err, ErrWorkload) {
		t.Errorf("non-contiguous cores: err = %v, want ErrWorkload", err)
	}
}

// errAny marks table rows expecting some error without a specific sentinel.
var errAny = errors.New("any error")

// hysteresisController builds a controller with tight synthetic constants:
// escalate after 3 epochs ≥0.6, recover after 5 epochs ≤0.2, 3-epoch
// probation, and a breaker that trips after 2 flapped releases.
func hysteresisController(t *testing.T) *Controller {
	t.Helper()
	r := newTestRegistry(t)
	c, err := NewController(r, ControllerConfig{
		Ladder: overload.LadderConfig{
			EscalateFrac: 0.6, RecoverFrac: 0.2, EscalateAfter: 3, RecoverAfter: 5,
		},
		Breaker:         overload.BreakerConfig{Window: 2, FailureThreshold: 1, Cooldown: 1e6, HalfOpenProbes: 1},
		ProbationEpochs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// feed drives one pressure sample per epoch, stamping epochs 1 ns apart.
func feed(c *Controller, start float64, pressures ...float64) float64 {
	now := start
	for _, p := range pressures {
		now++
		c.step(now, p)
	}
	return now
}

func TestHysteresisBandSuppressesOscillation(t *testing.T) {
	c := hysteresisController(t)
	// High pressure never sustains for EscalateAfter consecutive epochs:
	// the calm observation resets the run, so the controller must not move.
	var seq []float64
	for i := 0; i < 8; i++ {
		seq = append(seq, 0.9, 0.9, 0.1)
	}
	feed(c, 0, seq...)
	if s := c.Stats(); s.Isolations != 0 || s.Releases != 0 || c.Level() != 0 {
		t.Errorf("oscillating pressure moved the controller: %+v, level %d", s, c.Level())
	}
}

func TestHysteresisSingleIsolation(t *testing.T) {
	c := hysteresisController(t)
	feed(c, 0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9)
	s := c.Stats()
	if s.Isolations != 1 {
		t.Errorf("sustained pressure isolated %d times, want exactly 1", s.Isolations)
	}
	if s.Releases != 0 || c.Level() != 1 {
		t.Errorf("unexpected releases %d / level %d", s.Releases, c.Level())
	}
}

func TestHysteresisReleaseAfterCalm(t *testing.T) {
	c := hysteresisController(t)
	feed(c, 0, 0.9, 0.9, 0.9) // isolate
	feed(c, 3, 0.1, 0.1, 0.1, 0.1, 0.1)
	s := c.Stats()
	if s.Isolations != 1 || s.Releases != 1 || c.Level() != 0 {
		t.Errorf("calm did not release exactly once: %+v, level %d", s, c.Level())
	}
	// Probation runs clean: the breaker records the release as sound.
	feed(c, 8, 0.1, 0.1, 0.1, 0.1)
	if st := c.breaker.Stats(); st.Trips != 0 {
		t.Errorf("clean release tripped the breaker: %+v", st)
	}
}

// TestFlapSuppression drives the attack-release-attack cycle: the second
// flapped release trips the breaker, after which the controller refuses
// further de-isolation and the tenant stays isolated — no oscillation.
func TestFlapSuppression(t *testing.T) {
	c := hysteresisController(t)
	now := feed(c, 0, 0.9, 0.9, 0.9) // isolate #1
	now = feed(c, now, 0.1, 0.1, 0.1, 0.1, 0.1)
	if c.Level() != 0 {
		t.Fatalf("level %d after calm, want 0", c.Level())
	}
	// Pressure re-spikes inside probation: flap #1, re-isolate.
	now = feed(c, now, 0.9, 0.9, 0.9) // flap recorded, then isolate #2
	if s := c.Stats(); s.Isolations != 2 {
		t.Fatalf("after first re-attack: %+v", s)
	}
	now = feed(c, now, 0.1, 0.1, 0.1, 0.1, 0.1) // release #2
	now = feed(c, now, 0.9)                     // flap #2 → breaker trips
	if st := c.breaker.State(); st != overload.BreakerOpen {
		t.Fatalf("breaker %v after second flap, want open", st)
	}
	now = feed(c, now, 0.9, 0.9) // re-isolate #3
	// Calm again — but releases are now suppressed while the breaker
	// cools down, so the plan stays isolated.
	now = feed(c, now, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
	_ = now
	s := c.Stats()
	if c.Level() != 1 {
		t.Errorf("level = %d after suppressed calm, want 1 (pinned isolated)", c.Level())
	}
	if s.SuppressedReleases == 0 {
		t.Errorf("no suppressed releases recorded: %+v", s)
	}
	if s.Releases != 2 {
		t.Errorf("releases = %d, want 2 (third and later suppressed)", s.Releases)
	}
}

// TestIsolationPlanMasks pins the plan geometry on the 20-way Haswell LLC
// (DDIO ways 18..19): the latency-critical tenant gets the top I/O way
// exclusively, the bulk tenant the rest of the DDIO region, and the CAT
// split covers the non-DDIO ways with contiguous disjoint chunks that
// never touch the I/O region. Release restores the registered state.
func TestIsolationPlanMasks(t *testing.T) {
	r := newTestRegistry(t)
	victim, err := r.Register(TenantConfig{Name: "victim", Class: LatencyCritical, Cores: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	hog, err := r.Register(TenantConfig{Name: "hog", Class: Bulk, Cores: []int{4, 5},
		CATWays: cachesim.MaskOfWayRange(0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AttachNet(victim, NetWorkloadConfig{Chain: scanChain(t)}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AttachNet(hog, NetWorkloadConfig{Chain: scanChain(t)}); err != nil {
		t.Fatal(err)
	}
	c, err := NewController(r, ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}

	c.isolate()
	ddio := r.Machine().LLC.DDIOWayMask()
	if want := cachesim.MaskOfWayRange(19, 20); victim.appliedDDIO != want {
		t.Errorf("victim DDIO mask = %#x, want %#x (top I/O way)",
			uint64(victim.appliedDDIO), uint64(want))
	}
	if want := cachesim.MaskOfWayRange(18, 19); hog.appliedDDIO != want {
		t.Errorf("hog DDIO mask = %#x, want %#x (rest of the I/O region)",
			uint64(hog.appliedDDIO), uint64(want))
	}
	if victim.appliedDDIO&hog.appliedDDIO != 0 {
		t.Error("tenant DDIO shares overlap")
	}
	if victim.Port().DDIOMask() != victim.appliedDDIO {
		t.Error("victim port not programmed")
	}
	// CAT: disjoint contiguous chunks below the DDIO region.
	vm, hm := victim.appliedCAT, hog.appliedCAT
	if vm&hm != 0 {
		t.Errorf("CAT chunks overlap: victim %#x hog %#x", uint64(vm), uint64(hm))
	}
	if vm&ddio != 0 || hm&ddio != 0 {
		t.Errorf("CAT chunk touches the DDIO region: victim %#x hog %#x ddio %#x",
			uint64(vm), uint64(hm), uint64(ddio))
	}
	if vm == 0 || hm == 0 {
		t.Error("empty CAT chunk under isolation")
	}
	for _, core := range victim.Cores() {
		cos, _ := r.cat.COSOf(core)
		if cos != victim.cos {
			t.Errorf("victim core %d in COS%d", core, cos)
		}
	}

	c.release()
	if victim.Port().DDIOMask() != 0 || hog.Port().DDIOMask() != 0 {
		t.Error("release left a DDIO override in place")
	}
	if victim.appliedCAT != 0 {
		t.Errorf("victim applied CAT = %#x after release, want 0 (COS0)", uint64(victim.appliedCAT))
	}
	for _, core := range victim.Cores() {
		if cos, _ := r.cat.COSOf(core); cos != 0 {
			t.Errorf("victim core %d in COS%d after release, want COS0", core, cos)
		}
	}
	// The hog registered a static budget: release restores it.
	if hog.appliedCAT != cachesim.MaskOfWayRange(0, 4) {
		t.Errorf("hog applied CAT = %#x after release, want its registered %#x",
			uint64(hog.appliedCAT), uint64(cachesim.MaskOfWayRange(0, 4)))
	}
	got, _ := r.cat.Mask(hog.cos)
	if got != cachesim.MaskOfWayRange(0, 4) {
		t.Errorf("hog COS mask = %#x after release", uint64(got))
	}
}

// TestMonitorAttributesLeaks checks the per-tenant first-touch pipeline:
// a leaked line read by a victim core lands in the victim's sample and
// pressure, not the other tenant's.
func TestMonitorAttributesLeaks(t *testing.T) {
	r := newTestRegistry(t)
	if _, err := r.Register(TenantConfig{Name: "victim", Class: LatencyCritical, Cores: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(TenantConfig{Name: "hog", Class: Bulk, Cores: []int{4, 5}}); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(r, 4)
	mon.Sample() // baseline

	l := r.Machine().LLC
	// Overflow one set's DDIO budget so the first line leaks, then read
	// it (miss) and a resident one (hit) on victim core 0.
	p := r.Machine().Profile
	setSize := uint64(p.LLCSlice.Sets() * 64)
	target := l.Hash().Slice(0)
	var addrs []uint64
	for a := uint64(0); len(addrs) < p.DDIOWays+1; a += setSize {
		if l.Hash().Slice(a) == target {
			addrs = append(addrs, a)
		}
	}
	for _, a := range addrs {
		l.DMAInsert(a)
	}
	l.LookupCore(0, addrs[0], false) // leaked → first-touch miss
	l.LookupCore(0, addrs[1], false) // resident → first-touch hit

	s := mon.Sample()
	if s[0].FirstTouchMisses != 1 || s[0].FirstTouchHits != 1 {
		t.Errorf("victim sample = %+v, want {1 1}", s[0])
	}
	if s[1].FirstTouchMisses != 0 || s[1].FirstTouchHits != 0 {
		t.Errorf("hog sample = %+v, want zero", s[1])
	}
	if got := mon.LeakPressure(0); got != 0.5 {
		t.Errorf("victim leak pressure = %v, want 0.5", got)
	}
	if got := mon.LeakPressure(1); got != 0 {
		t.Errorf("hog leak pressure = %v, want 0 (no first touches, no signal)", got)
	}
}
