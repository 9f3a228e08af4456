package main

import "testing"

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 100}, {19, 100}, // no percentile of the ladder has ten samples beyond it
		{20, 50}, // rank 10, ten beyond
		{39, 50}, // p75 is rank 30, nine beyond
		{40, 75},
		{99, 75}, // p90 is rank 90, nine beyond
		{100, 90},
		{106, 90},
		{200, 95},
		{999, 95}, // p99 is rank 990, nine beyond
		{1000, 99},
		{64327, 99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	in := []float64{3, 1, 2}
	s := summarize(in)
	if s.Median != 2 || s.Min != 1 || s.Max != 3 || s.N != 3 {
		t.Errorf("summarize(3,1,2) = %+v", s)
	}
	if in[0] != 3 {
		t.Error("summarize reordered its input")
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.Median != 2.5 {
		t.Errorf("median of four = %g, want 2.5", s.Median)
	}
	if s := summarize(nil); s != (Summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}
