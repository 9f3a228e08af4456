package experiments

import (
	"testing"

	"sliceaware/internal/nfv"
)

func TestAblationPrefetchShape(t *testing.T) {
	t.Parallel()
	pts, _, err := AblationPrefetch(quick)
	if err != nil {
		t.Fatal(err)
	}
	get := func(sliceAware, prefetch bool) float64 {
		for _, p := range pts {
			if p.SliceAware == sliceAware && p.Prefetch == prefetch {
				return p.CyclesPerOp
			}
		}
		t.Fatalf("missing point %v/%v", sliceAware, prefetch)
		return 0
	}
	// Without prefetching, slice-aware sequential access beats contiguous
	// (local LLC hits vs spread).
	if get(true, false) >= get(false, false) {
		t.Errorf("prefetch off: slice-aware %.1f not below contiguous %.1f", get(true, false), get(false, false))
	}
	// Prefetching must help contiguous layouts substantially...
	if get(false, true) >= get(false, false)*0.8 {
		t.Errorf("prefetch barely helped contiguous: %.1f vs %.1f", get(false, true), get(false, false))
	}
	// ...and do nothing for slice-aware scatter (§8's caveat) — flipping
	// the winner for streaming workloads.
	if get(true, true) < get(true, false)*0.95 {
		t.Errorf("prefetch helped scattered layout: %.1f vs %.1f", get(true, true), get(true, false))
	}
	if get(false, true) >= get(true, true) {
		t.Errorf("with prefetching, contiguous %.1f should beat slice-aware %.1f", get(false, true), get(true, true))
	}
}

func TestSkylakeCacheDirector(t *testing.T) {
	t.Parallel()
	res, _, err := SkylakeCacheDirector(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.HaswellP99ImprovementUs <= 0 {
		t.Errorf("Haswell improvement %.2f µs not positive", res.HaswellP99ImprovementUs)
	}
	if res.SkylakeP99ImprovementUs <= 0 {
		t.Errorf("Skylake improvement %.2f µs not positive — §6 says CacheDirector still helps", res.SkylakeP99ImprovementUs)
	}
	if res.SkylakeSpeedup >= res.HaswellSpeedup {
		t.Errorf("Skylake speedup %.3f not below Haswell %.3f — §6 predicts lower improvements", res.SkylakeSpeedup, res.HaswellSpeedup)
	}
}

func TestLargeValueKVS(t *testing.T) {
	t.Parallel()
	pts, _, err := LargeValueKVS(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.GainPct <= 0 {
			t.Errorf("%d B values: slice-aware gain %.1f%% not positive", p.ValueBytes, p.GainPct)
		}
	}
}

func TestHotMigration(t *testing.T) {
	t.Parallel()
	res, _, err := HotMigration(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated == 0 {
		t.Error("nothing migrated")
	}
	if res.AfterCycles >= res.BeforeCycles {
		t.Errorf("migration did not reduce cycles/request: %.1f → %.1f", res.BeforeCycles, res.AfterCycles)
	}
	if res.CopyCycles == 0 {
		t.Error("migration was free — copy cost missing")
	}
}

func TestPageColoringDemo(t *testing.T) {
	t.Parallel()
	tab, err := PageColoringDemo()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[0][1] != "8 of 8" {
		t.Errorf("page coloring spread = %q, want full spread", tab.Rows[0][1])
	}
	if tab.Rows[1][1] != "1 of 8" {
		t.Errorf("slice-aware spread = %q, want single slice", tab.Rows[1][1])
	}
}

func TestVMIsolation(t *testing.T) {
	t.Parallel()
	rows, tab, err := VMIsolation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(policy, vm string) float64 {
		for _, r := range rows {
			if r.Policy == policy && r.VM == vm {
				return r.CyclesPerOp
			}
		}
		t.Fatalf("missing row %s/%s", policy, vm)
		return 0
	}
	if get("slice-isolated", "quiet") >= get("shared", "quiet") {
		t.Errorf("isolation did not protect the quiet VM: %.1f vs %.1f",
			get("slice-isolated", "quiet"), get("shared", "quiet"))
	}
	// The noisy streamer misses everywhere regardless of policy.
	if get("shared", "noisy") < 100 || get("slice-isolated", "noisy") < 100 {
		t.Error("noisy VM implausibly fast")
	}
}

func TestOffsetTarget(t *testing.T) {
	t.Parallel()
	rows, _, err := OffsetTarget(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The offset-targeted configuration must be the best of the three.
	best := rows[2]
	for _, r := range rows[:2] {
		if best.P99Us >= r.P99Us {
			t.Errorf("TargetOffset=128 p99 %.1f not below %q p99 %.1f", best.P99Us, r.Config, r.P99Us)
		}
	}
}

func TestTunnelInspector(t *testing.T) {
	t.Parallel()
	ti, err := nfv.NewTunnelInspector(128)
	if err != nil {
		t.Fatal(err)
	}
	if ti.InnerOffset() != 128 || ti.Name() == "" {
		t.Error("accessors broken")
	}
	if _, err := nfv.NewTunnelInspector(0); err == nil {
		t.Error("zero offset accepted")
	}
	if _, err := nfv.NewTunnelInspector(100); err == nil {
		t.Error("unaligned offset accepted")
	}
}

func TestSharedDataPlacement(t *testing.T) {
	t.Parallel()
	rows, _, err := SharedDataPlacement(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The compromise placement must have the smallest worst-thread cost.
	comp := rows[2]
	for _, r := range rows[:2] {
		if comp.WorstCycles >= r.WorstCycles {
			t.Errorf("compromise worst %.1f not below %q worst %.1f", comp.WorstCycles, r.Placement, r.WorstCycles)
		}
	}
	// Each primary placement favours its own core.
	if rows[0].CoreACycles >= rows[0].CoreBCycles {
		t.Error("core 0's primary placement did not favour core 0")
	}
	if rows[1].CoreBCycles >= rows[1].CoreACycles {
		t.Error("core 3's primary placement did not favour core 3")
	}
}

func TestAblationTables(t *testing.T) {
	t.Parallel()
	if _, tab, err := AblationDDIOWays(quick); err != nil || len(tab.Rows) != 4 {
		t.Errorf("DDIO ablation: %v, %d rows", err, len(tab.Rows))
	}
	if pts, tab, err := AblationPlacement(quick); err != nil || len(tab.Rows) != 4 {
		t.Errorf("placement ablation: %v, %d rows", err, len(tab.Rows))
	} else {
		// Every CacheDirector policy must beat no-CacheDirector at p99.
		base := pts[0].P99Us
		for _, p := range pts[1:] {
			if p.P99Us >= base*1.02 {
				t.Errorf("policy %q p99 %.1f worse than baseline %.1f", p.Policy, p.P99Us, base)
			}
		}
	}
	if pts, _, err := AblationSteering(quick); err != nil {
		t.Errorf("steering ablation: %v", err)
	} else if pts[0].Spread < pts[1].Spread {
		t.Errorf("RSS spread %d below FlowDirector %d", pts[0].Spread, pts[1].Spread)
	}
	if pts, _, err := AblationReplacement(quick); err != nil || len(pts) != 3 {
		t.Errorf("replacement ablation: %v, %d points", err, len(pts))
	} else {
		for _, p := range pts {
			if p.P99Us <= 0 || p.MeanUs <= 0 {
				t.Errorf("policy %v produced non-positive latencies", p.Policy)
			}
		}
	}
	if pts, _, err := AblationMultiSlice(quick); err != nil {
		t.Errorf("multi-slice ablation: %v", err)
	} else {
		if pts[0].Slices != 1 || pts[0].Speedup <= 0 {
			t.Errorf("single-slice point broken: %+v", pts[0])
		}
		// Speedup should decay as more (farther) slices join.
		if pts[2].Speedup > pts[0].Speedup {
			t.Errorf("4-slice speedup %.1f above 1-slice %.1f", pts[2].Speedup, pts[0].Speedup)
		}
	}
}
