package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"sliceaware/internal/cachedirector"
)

func TestFigOverload(t *testing.T) {
	t.Parallel()
	pts, table, err := FigOverload(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", table)
	if len(pts) != 11 || len(table.Rows) != 11 {
		t.Fatalf("got %d points / %d rows, want 11", len(pts), len(table.Rows))
	}
	at := func(label string, factor float64) FigOverloadPoint {
		t.Helper()
		for _, p := range pts {
			if p.Label == label && p.LoadFactor > factor-0.05 && p.LoadFactor < factor+0.05 {
				return p
			}
		}
		t.Fatalf("no point %q @ %.1fx", label, factor)
		return FigOverloadPoint{}
	}

	// Below saturation both policies behave, and nothing is shed or
	// early-dropped in quantity.
	calm := at("codel+shed", 0.8)
	if calm.ShedPct > 1 || calm.AQMPct > 1 {
		t.Errorf("below saturation the overload layer acted: %+v", calm)
	}

	for _, factor := range []float64{1.5, 3.0} {
		td, aq, cd := at("tail-drop", factor), at("codel", factor), at("codel+shed", factor)
		// Past saturation the combined policy must bound steady-state p99
		// well below the full-ring residency tail-drop settles into. The
		// pure AQM row manages that at 1.5x; at 3x its inverse-sqrt ramp is
		// still chasing the flood when the run ends, which is exactly why
		// the shedder exists.
		if factor < 2 && aq.P99Us >= td.P99Us/2 {
			t.Errorf("%.1fx: CoDel p99 %.1f µs not well below tail-drop %.1f µs", factor, aq.P99Us, td.P99Us)
		}
		if cd.P99Us >= td.P99Us/2 {
			t.Errorf("%.1fx: CoDel+shed p99 %.1f µs not well below tail-drop %.1f µs", factor, cd.P99Us, td.P99Us)
		}
		if aq.AQMPct == 0 {
			t.Errorf("%.1fx: CoDel never early-dropped", factor)
		}
		if cd.ShedPct == 0 {
			t.Errorf("%.1fx: nothing shed past saturation", factor)
		}
		// Throughput must not collapse: achieved stays within 10% of the
		// blind tail-drop policy's.
		if cd.AchievedGbps < td.AchievedGbps*0.9 || aq.AchievedGbps < td.AchievedGbps*0.9 {
			t.Errorf("%.1fx: achieved %.1f / %.1f Gbps vs tail-drop %.1f",
				factor, aq.AchievedGbps, cd.AchievedGbps, td.AchievedGbps)
		}
	}

	// At 3x every priority class has to participate, and the shed rates
	// must be strictly ordered: the lowest class pays the most.
	deep := at("codel+shed", 3.0)
	for c := 1; c < len(deep.ShedRates); c++ {
		if deep.ShedRates[c] >= deep.ShedRates[c-1] {
			t.Errorf("3x: class %d shed rate %.3f not below class %d rate %.3f",
				c, deep.ShedRates[c], c-1, deep.ShedRates[c-1])
		}
	}

	// Sustained pressure on the AQM-only row escalates the ladder off full
	// slice-aware placement (the shedder, when armed, relieves the queue
	// before pressure builds that far — so the combined row stays at full)...
	hot := at("codel", 3.0)
	if hot.Level == cachedirector.LevelFull || hot.LadderStats.Escalations == 0 {
		t.Errorf("deep overload never escalated the ladder: level %v, stats %+v", hot.Level, hot.LadderStats)
	}
	// ...and the recovery run walks it back to full.
	rec := at("codel, recovery", 0.4)
	if rec.Level != cachedirector.LevelFull {
		t.Errorf("recovery level = %v, want full (stats %+v)", rec.Level, rec.LadderStats)
	}
	if rec.LadderStats.Recoveries == 0 {
		t.Error("recovery run recorded no ladder recoveries")
	}

	// RED is a coarser signal but must still shed past saturation.
	red := at("red+shed", 1.5)
	if red.ShedPct == 0 {
		t.Errorf("RED row inert: %+v", red)
	}
}

func TestOverloadBreakerStormTable(t *testing.T) {
	t.Parallel()
	table, err := OverloadBreakerStorm(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", table)
	if len(table.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(table.Rows))
	}
	cell := func(row, col int) int {
		v, err := strconv.Atoi(table.Rows[row][col])
		if err != nil {
			t.Fatalf("row %d col %d %q not a number: %v", row, col, table.Rows[row][col], err)
		}
		return v
	}
	// Column order: policy, storm retries, backoff cycles, skipped,
	// breaker skips, trips, recoveries, post-storm migrated.
	plainRetries, brkRetries := cell(0, 1), cell(1, 1)
	if brkRetries*4 > plainRetries {
		t.Errorf("breaker saved too little: %d retries vs %d without", brkRetries, plainRetries)
	}
	if cell(1, 4) == 0 {
		t.Error("breaker skipped no keys during the storm")
	}
	if cell(1, 5) != 1 || cell(1, 6) != 1 {
		t.Errorf("breaker trips/recoveries = %s/%s, want 1/1", table.Rows[1][5], table.Rows[1][6])
	}
	if cell(0, 7) == 0 || cell(1, 7) == 0 {
		t.Error("post-storm pass migrated nothing")
	}
}

// One run seed reproduces the whole sweep byte-for-byte.
func TestFigOverloadSeedDeterminism(t *testing.T) {
	t.Parallel()
	seven := quick
	seven.Seed = 7
	a1, t1, err := FigOverload(seven)
	if err != nil {
		t.Fatal(err)
	}
	a2, t2, err := FigOverload(seven)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Error("same seed produced different points")
	}
	if t1.String() != t2.String() {
		t.Error("same seed produced different tables")
	}
	b1, err := OverloadBreakerStorm(seven)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := OverloadBreakerStorm(seven)
	if err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("same seed produced different breaker tables")
	}
}
