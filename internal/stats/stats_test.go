package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 5.5 {
		t.Errorf("P50 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile not NaN")
	}
	// Input must not be mutated (callers reuse latency slices).
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		return Percentile(xs, 0) == mn && Percentile(xs, 100) == mx
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("N/min/max = %d/%v/%v", s.N, s.Min, s.Max)
	}
	if s.Mean != 50.5 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.P90 <= s.P75 || s.P95 <= s.P90 || s.P99 <= s.P95 {
		t.Errorf("percentiles not increasing: %+v", s)
	}
	empty := Summarize(nil)
	if !math.IsNaN(empty.Mean) {
		t.Error("empty summary mean not NaN")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cdf := CDF(xs, 5)
	if len(cdf) != 5 {
		t.Fatalf("%d points", len(cdf))
	}
	if cdf[0].X != 1 || cdf[len(cdf)-1].X != 5 {
		t.Errorf("endpoints %v..%v", cdf[0].X, cdf[len(cdf)-1].X)
	}
	if cdf[len(cdf)-1].F != 1 {
		t.Errorf("final F = %v", cdf[len(cdf)-1].F)
	}
	if !sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].X < cdf[j].X }) {
		t.Error("CDF x values not sorted")
	}
	if CDF(nil, 10) != nil {
		t.Error("empty CDF not nil")
	}
	if got := CDF(xs, 1000); len(got) != 5 {
		t.Errorf("oversampled CDF has %d points", len(got))
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A-3) > 1e-9 || math.Abs(f.B-2) > 1e-9 || math.Abs(f.R2-1) > 1e-9 {
		t.Errorf("fit = %+v", f)
	}
	if f.Eval(10) != 23 {
		t.Errorf("Eval(10) = %v", f.Eval(10))
	}
	if f.String() == "" {
		t.Error("empty String")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestFitQuadraticExact(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 - 3*x + 0.5*x*x
	}
	f, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A-5) > 1e-6 || math.Abs(f.B+3) > 1e-6 || math.Abs(f.C-0.5) > 1e-6 {
		t.Errorf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-9 {
		t.Errorf("R² = %v", f.R2)
	}
	if f.String() == "" {
		t.Error("empty String")
	}
	if _, err := FitQuadratic([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("2 points accepted")
	}
	if _, err := FitQuadratic([]float64{1, 1, 1, 1}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 10 + 0.5*xs[i] + rng.NormFloat64()
	}
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.B-0.5) > 0.05 {
		t.Errorf("slope = %v, want ≈0.5", f.B)
	}
	if f.R2 < 0.99 {
		t.Errorf("R² = %v", f.R2)
	}
}

func TestFitPiecewise(t *testing.T) {
	// Build Fig 15-shaped data: linear below 37, quadratic blow-up above.
	var xs, ys []float64
	for x := 5.0; x <= 80; x += 2.5 {
		xs = append(xs, x)
		if x < 37 {
			ys = append(ys, 15+0.25*x)
		} else {
			ys = append(ys, 2000-100*x+1.2*x*x)
		}
	}
	f, err := FitPiecewise(xs, ys, 37)
	if err != nil {
		t.Fatal(err)
	}
	if f.Low.R2 < 0.999 || f.High.R2 < 0.999 {
		t.Errorf("branch R² = %v / %v", f.Low.R2, f.High.R2)
	}
	if math.Abs(f.Low.Eval(10)-17.5) > 0.1 {
		t.Errorf("Low.Eval(10) = %v", f.Low.Eval(10))
	}
	if math.Abs(f.High.Eval(60)-(2000-6000+4320)) > 5 {
		t.Errorf("High.Eval(60) = %v", f.High.Eval(60))
	}
	if f.String() == "" {
		t.Error("empty String")
	}
	if _, err := FitPiecewise(xs[:2], ys[:2], 37); err == nil {
		t.Error("insufficient data accepted")
	}
}

// Regression: percentileSorted used to index s[-1] for 0 < p < 100 on an
// empty slice (pos = p/100 * -1 rounds down to -1). Every entry point must
// return NaN on empty input instead of panicking.
func TestEmptyInputReturnsNaN(t *testing.T) {
	for _, p := range []float64{-5, 0, 0.1, 50, 99.9, 100, 200} {
		if got := Percentile(nil, p); !math.IsNaN(got) {
			t.Errorf("Percentile(nil, %v) = %v, want NaN", p, got)
		}
		if got := percentileSorted(nil, p); !math.IsNaN(got) {
			t.Errorf("percentileSorted(nil, %v) = %v, want NaN", p, got)
		}
		if got := percentileSorted([]float64{}, p); !math.IsNaN(got) {
			t.Errorf("percentileSorted([], %v) = %v, want NaN", p, got)
		}
	}
	s := Summarize(nil)
	if s.N != 0 {
		t.Errorf("Summarize(nil).N = %d", s.N)
	}
	for name, v := range map[string]float64{
		"Mean": s.Mean, "P50": s.P50, "P75": s.P75, "P90": s.P90,
		"P95": s.P95, "P99": s.P99, "Min": s.Min, "Max": s.Max,
	} {
		if !math.IsNaN(v) {
			t.Errorf("Summarize(nil).%s = %v, want NaN", name, v)
		}
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
	if got := CDF(nil, 8); got != nil {
		t.Errorf("CDF(nil) = %v, want nil", got)
	}
}
