package experiments

import (
	"reflect"
	"testing"
)

// TestFigTenantClosedLoop is the acceptance test for the F-TENANT
// experiment: with the controller off a 3x hog measurably degrades the
// victim's steady-state p99; with the controller on the victim stays
// within 1.2x of solo and the hog is fenced in exactly one reallocation;
// the recovery row walks the isolation back out in exactly one release.
func TestFigTenantClosedLoop(t *testing.T) {
	t.Parallel()
	pts, tab, err := FigTenant(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || tab.ID != "F-TENANT" {
		t.Fatalf("table = %+v, want ID F-TENANT", tab)
	}
	if len(pts) != 9 {
		t.Fatalf("got %d sweep points, want 9 (off/on x 4 factors + recovery)", len(pts))
	}

	find := func(on bool, factor float64) FigTenantPoint {
		t.Helper()
		for _, p := range pts[:8] {
			if p.ControllerOn == on && p.HogFactor == factor {
				return p
			}
		}
		t.Fatalf("no sweep point on=%v factor=%v", on, factor)
		return FigTenantPoint{}
	}

	// Controller off: the 3x hog leaks the victim's RX lines and the tail
	// degrades well past solo.
	off3 := find(false, 3)
	if off3.RatioVsSolo < 1.2 {
		t.Errorf("controller off, hog 3x: victim p99 = %.2fx solo, want >= 1.2x degradation", off3.RatioVsSolo)
	}
	if off3.EvictUnread == 0 || off3.MissedFirst == 0 {
		t.Errorf("controller off, hog 3x: leak counters zero (evict-unread %d, missed-first-touch %d)",
			off3.EvictUnread, off3.MissedFirst)
	}
	if off3.Stats.Isolations != 0 || off3.Level != 0 {
		t.Errorf("disarmed controller acted: %+v level %d", off3.Stats, off3.Level)
	}

	// Controller on: the victim's tail stays within 1.2x of solo and the
	// fence goes up in exactly one reallocation — the hysteresis bound of
	// at most one move per direction per sweep point.
	on3 := find(true, 3)
	if on3.RatioVsSolo > 1.2 {
		t.Errorf("controller on, hog 3x: victim p99 = %.2fx solo, want <= 1.2x", on3.RatioVsSolo)
	}
	if on3.Stats.Isolations != 1 || on3.Stats.Releases != 0 {
		t.Errorf("controller on, hog 3x: %d isolations %d releases, want exactly 1 and 0",
			on3.Stats.Isolations, on3.Stats.Releases)
	}
	if on3.Level != 1 {
		t.Errorf("controller on, hog 3x: level %d, want 1 (isolated)", on3.Level)
	}

	// No point in the sweep moves more than once per direction.
	for _, p := range pts {
		if p.Stats.Isolations > 1 || p.Stats.Releases > 1 {
			t.Errorf("%s hog %.0fx: %d isolations / %d releases — oscillation",
				p.Label, p.HogFactor, p.Stats.Isolations, p.Stats.Releases)
		}
	}

	// Solo and a quiet hog never trigger the controller.
	if p := find(true, 0); p.Stats.Isolations != 0 {
		t.Errorf("controller on, no hog: %d isolations, want 0", p.Stats.Isolations)
	}

	// Recovery: the hog went quiet, the controller released exactly once,
	// and the victim's post-release tail is back near solo.
	rec := pts[8]
	if rec.Stats.Releases != 1 {
		t.Errorf("recovery: %d releases, want exactly 1", rec.Stats.Releases)
	}
	if rec.Level != 0 {
		t.Errorf("recovery: level %d, want 0 (released)", rec.Level)
	}
	if rec.Stats.SuppressedReleases != 0 {
		t.Errorf("recovery: suppressed %d releases, want clean probation",
			rec.Stats.SuppressedReleases)
	}
	if rec.RatioVsSolo > 1.2 {
		t.Errorf("recovery: victim p99 = %.2fx solo after release, want <= 1.2x", rec.RatioVsSolo)
	}
}

// TestFigTenantDeterministic pins the whole experiment to its seeds: two
// runs must agree point for point, including every controller decision.
func TestFigTenantDeterministic(t *testing.T) {
	t.Parallel()
	a, ta, err := FigTenant(quick)
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := FigTenant(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two FigTenant(quick) runs disagree")
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Error("two FigTenant(quick) tables disagree")
	}
}
