package experiments

import (
	"strconv"
	"testing"

	"sliceaware/internal/cat"
)

func TestFigure12Shape(t *testing.T) {
	t.Parallel()
	res, tab, err := Figure12(quick)
	if err != nil {
		t.Fatal(err)
	}
	base, cd := res.Summaries()
	if cd.Mean >= base.Mean {
		t.Errorf("CacheDirector mean %.1f ≥ baseline %.1f at low rate", cd.Mean, base.Mean)
	}
	if cd.P99 > base.P99 {
		t.Errorf("CacheDirector p99 %.1f above baseline %.1f", cd.P99, base.P99)
	}
	// At 1000 pps there is no queueing: sub-10 µs latencies.
	if base.P99 > 10_000 {
		t.Errorf("baseline p99 %.1f ns too high for 1000 pps", base.P99)
	}
	if len(tab.Rows) != 5 {
		t.Errorf("%d table rows", len(tab.Rows))
	}
}

func TestFigure13And14Shape(t *testing.T) {
	t.Parallel()
	f13, _, err := Figure13(quick)
	if err != nil {
		t.Fatal(err)
	}
	base13, cd13 := f13.Summaries()
	if cd13.P99 >= base13.P99 {
		t.Errorf("F13: CacheDirector p99 %.0f ≥ baseline %.0f", cd13.P99, base13.P99)
	}
	if cd13.Mean >= base13.Mean {
		t.Errorf("F13: CacheDirector mean not better")
	}
	// Saturated system: tails in the tens-to-hundreds of µs.
	if base13.P99 < 20_000 {
		t.Errorf("F13 baseline p99 %.0f ns suspiciously small at 100 Gbps", base13.P99)
	}
	if f13.BaseGbps < 60 || f13.BaseGbps > 85 {
		t.Errorf("F13 throughput %.1f Gbps outside the NIC/CPU-limited band", f13.BaseGbps)
	}

	f14, _, err := Figure14(quick)
	if err != nil {
		t.Fatal(err)
	}
	base14, cd14 := f14.Summaries()
	if cd14.P99 >= base14.P99 {
		t.Errorf("F14: CacheDirector p99 %.0f ≥ baseline %.0f", cd14.P99, base14.P99)
	}
	if f14.BaseGbps < 60 || f14.BaseGbps > 85 {
		t.Errorf("F14 throughput %.1f Gbps off", f14.BaseGbps)
	}

	_, t3 := Table3From(f13, f14)
	if len(t3.Rows) != 2 {
		t.Errorf("Table 3 rows = %d", len(t3.Rows))
	}
	cdf := CDFTable(f14, 20)
	if len(cdf.Rows) != 20 {
		t.Errorf("CDF rows = %d", len(cdf.Rows))
	}
	// CDF x values non-decreasing.
	prev := -1.0
	for _, r := range cdf.Rows {
		f, err := strconv.ParseFloat(r[0], 64)
		if err != nil {
			t.Fatalf("bad CDF fraction %q", r[0])
		}
		if f < prev {
			t.Error("CDF fractions not sorted")
		}
		prev = f
	}
}

func TestFigure15Knee(t *testing.T) {
	t.Parallel()
	res, _, err := Figure15(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 6 {
		t.Fatalf("%d sweep points", len(res.Points))
	}
	// Tail latency must rise monotonically-ish and blow up near capacity:
	// the last point at ≥3× the 35 Gbps point.
	var at35, last float64
	for _, p := range res.Points {
		if p.OfferedGbps == 35 {
			at35 = p.BaseP99Us
		}
		last = p.BaseP99Us
	}
	if at35 <= 0 || last < 3*at35 {
		t.Errorf("no knee: p99(35G)=%.1f, p99(max)=%.1f", at35, last)
	}
	// Both branches of the piecewise fit must explain the data.
	if res.BaseFit.Low.R2 < 0.5 || res.BaseFit.High.R2 < 0.9 {
		t.Errorf("fit quality: low R²=%.3f high R²=%.3f", res.BaseFit.Low.R2, res.BaseFit.High.R2)
	}
	// CacheDirector never worse at any sampled rate (to measurement noise).
	for _, p := range res.Points {
		if p.CDP99Us > p.BaseP99Us*1.02 {
			t.Errorf("at %.0f Gbps CacheDirector p99 %.1f above baseline %.1f", p.OfferedGbps, p.CDP99Us, p.BaseP99Us)
		}
	}
}

func TestFigure17Shape(t *testing.T) {
	t.Parallel()
	res, _, err := Figure17(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.SliceVsWaySpeedupRead < 0.03 || res.SliceVsWaySpeedupRead > 0.25 {
		t.Errorf("slice-vs-way read speedup %.1f%% outside 3..25%%", res.SliceVsWaySpeedupRead*100)
	}
	if res.SliceVsWaySpeedupWrite < 0.03 {
		t.Errorf("slice-vs-way write speedup %.1f%% too small", res.SliceVsWaySpeedupWrite*100)
	}
	for _, write := range []bool{false, true} {
		noCat, _ := res.Cell(cat.NoCAT, write)
		ways, _ := res.Cell(cat.WayIsolated, write)
		slice0, _ := res.Cell(cat.SliceIsolated, write)
		if !(slice0.ExecTimeMs < ways.ExecTimeMs && ways.ExecTimeMs < noCat.ExecTimeMs) {
			t.Errorf("write=%v ordering broken: %.3f / %.3f / %.3f", write,
				noCat.ExecTimeMs, ways.ExecTimeMs, slice0.ExecTimeMs)
		}
	}
}
