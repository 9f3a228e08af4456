// Package stats provides the statistical machinery the evaluation uses:
// percentiles and CDFs for latency distributions, means, skewness (the
// workload-characterization measure referenced in §3.1), and the
// least-squares fits — linear, quadratic, and the piecewise
// linear+quadratic form of Fig 15 — together with R².
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	// Guard empty input here too, not just in the exported wrappers: for
	// 0 < p < 100 the interpolation below would compute pos = -p/100 and
	// index s[-1].
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Summary bundles the latency statistics every figure reports.
type Summary struct {
	N    int
	Mean float64
	P50  float64
	P75  float64
	P90  float64
	P95  float64
	P99  float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, P50: nan, P75: nan, P90: nan, P95: nan, P99: nan, Min: nan, Max: nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:    len(s),
		Mean: Mean(s),
		P50:  percentileSorted(s, 50),
		P75:  percentileSorted(s, 75),
		P90:  percentileSorted(s, 90),
		P95:  percentileSorted(s, 95),
		P99:  percentileSorted(s, 99),
		Min:  s[0],
		Max:  s[len(s)-1],
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	F float64 // cumulative fraction in [0,1]
}

// CDF returns the empirical CDF of xs downsampled to at most points entries
// (plus the exact endpoints).
func CDF(xs []float64, points int) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if points < 2 {
		points = 2
	}
	if points > len(s) {
		points = len(s)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := i * (len(s) - 1) / (points - 1)
		out = append(out, CDFPoint{X: s[idx], F: float64(idx+1) / float64(len(s))})
	}
	return out
}

// LinearFit is y = A + B·x.
type LinearFit struct {
	A, B float64
	R2   float64
}

func (f LinearFit) Eval(x float64) float64 { return f.A + f.B*x }

// String renders the fit the way Fig 15 annotates it.
func (f LinearFit) String() string { return fmt.Sprintf("%.4g + %.4g·X (R²=%.3f)", f.A, f.B, f.R2) }

// FitLinear computes the least-squares line through (xs, ys).
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: linear fit needs ≥2 paired points, got %d/%d", len(xs), len(ys))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, fmt.Errorf("stats: degenerate x values for linear fit")
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	f := LinearFit{A: a, B: b}
	f.R2 = rSquared(ys, func(i int) float64 { return f.Eval(xs[i]) })
	return f, nil
}

// QuadFit is y = A + B·x + C·x².
type QuadFit struct {
	A, B, C float64
	R2      float64
}

func (f QuadFit) Eval(x float64) float64 { return f.A + f.B*x + f.C*x*x }

// String renders the fit the way Fig 15 annotates it.
func (f QuadFit) String() string {
	return fmt.Sprintf("%.4g + %.4g·X + %.4g·X² (R²=%.3f)", f.A, f.B, f.C, f.R2)
}

// FitQuadratic computes the least-squares parabola through (xs, ys) by
// solving the 3×3 normal equations.
func FitQuadratic(xs, ys []float64) (QuadFit, error) {
	if len(xs) != len(ys) || len(xs) < 3 {
		return QuadFit{}, fmt.Errorf("stats: quadratic fit needs ≥3 paired points, got %d/%d", len(xs), len(ys))
	}
	var s0, s1, s2, s3, s4, t0, t1, t2 float64
	s0 = float64(len(xs))
	for i := range xs {
		x := xs[i]
		y := ys[i]
		x2 := x * x
		s1 += x
		s2 += x2
		s3 += x2 * x
		s4 += x2 * x2
		t0 += y
		t1 += x * y
		t2 += x2 * y
	}
	m := [3][4]float64{
		{s0, s1, s2, t0},
		{s1, s2, s3, t1},
		{s2, s3, s4, t2},
	}
	sol, err := gauss3(m)
	if err != nil {
		return QuadFit{}, err
	}
	f := QuadFit{A: sol[0], B: sol[1], C: sol[2]}
	f.R2 = rSquared(ys, func(i int) float64 { return f.Eval(xs[i]) })
	return f, nil
}

func gauss3(m [3][4]float64) ([3]float64, error) {
	for col := 0; col < 3; col++ {
		// Partial pivot.
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return [3]float64{}, fmt.Errorf("stats: singular normal equations")
		}
		m[col], m[p] = m[p], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	var out [3]float64
	for i := 0; i < 3; i++ {
		out[i] = m[i][3] / m[i][i]
	}
	return out, nil
}

func rSquared(ys []float64, pred func(int) float64) float64 {
	my := Mean(ys)
	var ssRes, ssTot float64
	for i, y := range ys {
		d := y - pred(i)
		ssRes += d * d
		t := y - my
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// PiecewiseFit is the Fig 15 model: linear below the knee, quadratic at and
// above it.
type PiecewiseFit struct {
	Knee float64
	Low  LinearFit
	High QuadFit
}

// String renders both branches.
func (f PiecewiseFit) String() string {
	return fmt.Sprintf("X<%.4g: %s; X≥%.4g: %s", f.Knee, f.Low, f.Knee, f.High)
}

// FitPiecewise fits the Fig 15 piecewise form with the knee fixed at the
// given x (the paper uses 37 Gbps).
func FitPiecewise(xs, ys []float64, knee float64) (PiecewiseFit, error) {
	var lx, ly, hx, hy []float64
	for i := range xs {
		if xs[i] < knee {
			lx = append(lx, xs[i])
			ly = append(ly, ys[i])
		} else {
			hx = append(hx, xs[i])
			hy = append(hy, ys[i])
		}
	}
	low, err := FitLinear(lx, ly)
	if err != nil {
		return PiecewiseFit{}, fmt.Errorf("stats: low branch: %w", err)
	}
	high, err := FitQuadratic(hx, hy)
	if err != nil {
		return PiecewiseFit{}, fmt.Errorf("stats: high branch: %w", err)
	}
	return PiecewiseFit{Knee: knee, Low: low, High: high}, nil
}
