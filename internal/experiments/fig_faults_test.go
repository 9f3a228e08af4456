package experiments

import (
	"math"
	"reflect"
	"testing"

	"sliceaware/internal/cachedirector"
)

func TestFigFaults(t *testing.T) {
	t.Parallel()
	pts, table, err := FigFaults(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 || len(table.Rows) != 5 {
		t.Fatalf("got %d points / %d rows, want 5", len(pts), len(table.Rows))
	}
	byLabel := map[string]FigFaultsPoint{}
	for _, p := range pts {
		byLabel[p.Label] = p
	}
	base := byLabel["director off, clean"]
	clean := byLabel["director on, clean"]
	noWd := byLabel["wrong profile, no watchdog"]
	wd := byLabel["wrong profile, watchdog"]
	chaos := byLabel["NIC+core chaos, director on"]

	// Clean rows: nothing fired, nothing degraded.
	if base.Faults.Total() != 0 || clean.Faults.Total() != 0 {
		t.Errorf("clean rows recorded faults: %+v %+v", base.Faults, clean.Faults)
	}
	if clean.Mode != cachedirector.ModeActive {
		t.Errorf("clean director mode = %v", clean.Mode)
	}

	// Without a watchdog the wrong profile stays (wrongly) active.
	if noWd.Mode != cachedirector.ModeActive {
		t.Errorf("no-watchdog row: mode %v", noWd.Mode)
	}

	// The watchdog must detect the misprediction and degrade...
	if wd.Mode != cachedirector.ModeDegraded {
		t.Fatalf("watchdog never degraded: mode %v", wd.Mode)
	}
	// ...landing throughput within 5% of the director-off baseline.
	if rel := math.Abs(wd.AchievedGbps-base.AchievedGbps) / base.AchievedGbps; rel > 0.05 {
		t.Errorf("degraded throughput %.2f Gbps vs baseline %.2f (%.1f%% off, want ≤5%%)",
			wd.AchievedGbps, base.AchievedGbps, rel*100)
	}

	// Chaos row: injected faults fired and are accounted as drops.
	if chaos.Faults.Total() == 0 {
		t.Error("chaos row fired no faults")
	}
	if chaos.DroppedPct == 0 {
		t.Error("chaos row dropped nothing despite wire loss")
	}
}

// One run seed must reproduce the whole chaos ablation byte-for-byte; a
// different seed redraws the randomness.
func TestFigFaultsSeedDeterminism(t *testing.T) {
	t.Parallel()
	seven := quick
	seven.Seed = 7
	a1, t1, err := FigFaults(seven)
	if err != nil {
		t.Fatal(err)
	}
	a2, t2, err := FigFaults(seven)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Error("same seed produced different points")
	}
	if t1.String() != t2.String() {
		t.Error("same seed produced different tables")
	}

	eight := quick
	eight.Seed = 8
	b, _, err := FigFaults(eight)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a1, b) {
		t.Error("different seeds produced identical results")
	}
}
