// Package zipf generates the key distributions of the KVS experiment (§3.1,
// Fig 8): a Zipfian generator with configurable skew following the method
// of Gray et al., "Quickly Generating Billion-Record Synthetic Databases"
// (the same construction MICA's library uses), and a uniform generator with
// the same interface.
package zipf

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator produces keys in [0, N).
type Generator interface {
	Next() uint64
	N() uint64
}

// Zipf draws keys with P(rank k) ∝ 1/k^theta. theta=0.99 is the paper's
// "skewed (0.99)" workload.
type Zipf struct {
	rng   *rand.Rand
	n     uint64
	theta float64

	alpha, zetan, eta float64
	zeta2             float64
}

var _ Generator = (*Zipf)(nil)

// NewZipf builds a Zipfian generator over [0, n) with skew theta in (0,1).
// Construction is O(n) (one zeta computation) and generation is O(1).
func NewZipf(rng *rand.Rand, n uint64, theta float64) (*Zipf, error) {
	if n == 0 {
		return nil, fmt.Errorf("zipf: empty key space")
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("zipf: theta must be in (0,1), got %v", theta)
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z, nil
}

func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements Generator. Rank 0 is the most popular key.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// N implements Generator.
func (z *Zipf) N() uint64 { return z.n }

// Uniform draws keys uniformly from [0, N).
type Uniform struct {
	rng *rand.Rand
	n   uint64
}

var _ Generator = (*Uniform)(nil)

// NewUniform builds a uniform generator over [0, n).
func NewUniform(rng *rand.Rand, n uint64) (*Uniform, error) {
	if n == 0 {
		return nil, fmt.Errorf("zipf: empty key space")
	}
	return &Uniform{rng: rng, n: n}, nil
}

// Next implements Generator.
func (u *Uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }

// N implements Generator.
func (u *Uniform) N() uint64 { return u.n }
