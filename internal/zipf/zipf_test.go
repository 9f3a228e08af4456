package zipf

import (
	"math"
	"math/rand"
	"testing"
)

func TestZipfRangeAndDeterminism(t *testing.T) {
	g1, err := NewZipf(rand.New(rand.NewSource(1)), 1<<16, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewZipf(rand.New(rand.NewSource(1)), 1<<16, 0.99)
	for i := 0; i < 10000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatal("same seed diverged")
		}
		if a >= 1<<16 {
			t.Fatalf("key %d out of range", a)
		}
	}
	if g1.N() != 1<<16 || g1.theta != 0.99 {
		t.Error("accessors broken")
	}
}

func TestZipfSkew(t *testing.T) {
	g, err := NewZipf(rand.New(rand.NewSource(7)), 1<<20, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// With theta=0.99 over 1M keys, the hottest ~1% of keys should absorb
	// well over half the draws — the property Fig 8 depends on.
	hits := 0
	for i := 0; i < 100000; i++ {
		if g.Next() < 1<<20/100 {
			hits++
		}
	}
	frac := float64(hits) / 100000
	if frac < 0.5 {
		t.Errorf("hottest 1%% absorbs %.1f%% of draws, want >50%%", frac*100)
	}
	// Rank 0 must dominate any individual deep rank.
	counts := map[uint64]int{}
	g2, _ := NewZipf(rand.New(rand.NewSource(8)), 1024, 0.99)
	for i := 0; i < 100000; i++ {
		counts[g2.Next()]++
	}
	if counts[0] <= counts[512] {
		t.Errorf("rank 0 (%d) not hotter than rank 512 (%d)", counts[0], counts[512])
	}
	if counts[0] < 100000/50 {
		t.Errorf("rank 0 drew only %d of 100000", counts[0])
	}
}

func TestUniform(t *testing.T) {
	g, err := NewUniform(rand.New(rand.NewSource(3)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1000 {
		t.Error("N broken")
	}
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		k := g.Next()
		if k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k/100]++
	}
	want := float64(draws) / 10
	for d, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("decile %d: %d draws, want ≈%.0f", d, c, want)
		}
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewZipf(rng, 0, 0.99); err == nil {
		t.Error("empty key space accepted")
	}
	if _, err := NewZipf(rng, 10, 0); err == nil {
		t.Error("theta 0 accepted")
	}
	if _, err := NewZipf(rng, 10, 1); err == nil {
		t.Error("theta 1 accepted")
	}
	if _, err := NewUniform(rng, 0); err == nil {
		t.Error("empty uniform accepted")
	}
}
