package chash

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHaswell8Structure(t *testing.T) {
	h := Haswell8()
	if h.Slices() != 8 {
		t.Fatalf("Slices = %d, want 8", h.Slices())
	}
	if len(h.Masks) != 3 {
		t.Fatalf("outputs = %d, want 3", len(h.Masks))
	}
	// Fig 4: output bit 0 includes PA bit 6, output 1 includes PA bit 7,
	// output 2 includes PA bit 8; none consult sub-line bits.
	if !h.Bit(0, 6) || !h.Bit(1, 7) || !h.Bit(2, 8) {
		t.Error("lowest participating bits of the Fig 4 matrix missing")
	}
	for o := range h.Masks {
		for b := 0; b < 6; b++ {
			if h.Bit(o, b) {
				t.Errorf("output %d uses sub-line bit %d", o, b)
			}
		}
	}
}

func TestLineGranularity(t *testing.T) {
	hashes := []Hash{Haswell8(), Sandy2(), mustGeneralized(t, 18)}
	for _, h := range hashes {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			base := rng.Uint64() % (1 << 37) &^ 63
			s := h.Slice(base)
			for off := uint64(1); off < 64; off += 13 {
				if got := h.Slice(base + off); got != s {
					t.Fatalf("%T: slice changed within line at %#x+%d: %d vs %d", h, base, off, got, s)
				}
			}
		}
	}
}

// TestXORLinearity: the 2ⁿ hash is a linear map over GF(2) — the property
// the reverse-engineering method of §2.1 depends on.
func TestXORLinearity(t *testing.T) {
	h := Haswell8()
	f := func(a, b uint64) bool {
		a &= 1<<AddressBits - 1
		b &= 1<<AddressBits - 1
		return h.Slice(a)^h.Slice(b) == h.Slice(a^b)^h.Slice(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUniformDistribution(t *testing.T) {
	// Over a 1 GB hugepage the hash must spread lines near-uniformly —
	// that's Complex Addressing's entire purpose (bandwidth balance).
	for _, h := range []Hash{Haswell8(), mustGeneralized(t, 18)} {
		const lines = 1 << 18 // 16 MB worth
		counts := make([]int, h.Slices())
		for i := uint64(0); i < lines; i++ {
			counts[h.Slice(1<<30+i*64)]++
		}
		want := float64(lines) / float64(h.Slices())
		for s, c := range counts {
			dev := (float64(c) - want) / want
			if dev > 0.02 || dev < -0.02 {
				t.Errorf("%T slice %d: %d lines, want ≈%.0f (dev %.1f%%)", h, s, c, want, dev*100)
			}
		}
	}
}

func TestNewXORHashValidation(t *testing.T) {
	if _, err := NewXORHash(nil); err == nil {
		t.Error("empty mask list accepted")
	}
	if _, err := NewXORHash([]uint64{0}); err == nil {
		t.Error("zero mask accepted")
	}
	if _, err := NewXORHash([]uint64{1 << 3}); err == nil {
		t.Error("sub-line-only mask accepted")
	}
	if _, err := NewXORHash([]uint64{1<<6 | 1<<3}); err == nil {
		t.Error("mask mixing sub-line bits accepted")
	}
	if _, err := NewXORHash([]uint64{1 << 6, 1 << 7}); err != nil {
		t.Errorf("valid masks rejected: %v", err)
	}
}

func TestMatrixMatchesBits(t *testing.T) {
	h := Haswell8()
	m := h.Matrix()
	if len(m) != 3 || len(m[0]) != AddressBits {
		t.Fatalf("matrix shape %dx%d, want 3x%d", len(m), len(m[0]), AddressBits)
	}
	for o := range m {
		for b := range m[o] {
			if m[o][b] != h.Bit(o, b) {
				t.Fatalf("matrix[%d][%d] disagrees with Bit", o, b)
			}
		}
	}
}

func TestEqual(t *testing.T) {
	a, b := Haswell8(), Haswell8()
	if !a.Equal(b) {
		t.Error("identical hashes not Equal")
	}
	b.Masks[1] ^= 1 << 20
	if a.Equal(b) {
		t.Error("different hashes reported Equal")
	}
	if a.Equal(Sandy2()) {
		t.Error("hashes with different output counts reported Equal")
	}
}

func TestForProfileSlices(t *testing.T) {
	h8, err := ForProfileSlices(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h8.(*XORHash); !ok || h8.Slices() != 8 {
		t.Errorf("8 slices: got %T over %d", h8, h8.Slices())
	}
	h18, err := ForProfileSlices(18)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h18.(*GeneralizedHash); !ok || h18.Slices() != 18 {
		t.Errorf("18 slices: got %T over %d", h18, h18.Slices())
	}
	if _, err := ForProfileSlices(1); err == nil {
		t.Error("1 slice accepted")
	}
	h2, err := ForProfileSlices(2)
	if err != nil || h2.Slices() != 2 {
		t.Errorf("2 slices: %v, %d", err, h2.Slices())
	}
}

func TestGeneralizedRange(t *testing.T) {
	h := mustGeneralized(t, 18)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		s := h.Slice(rng.Uint64() % (1 << AddressBits))
		if s < 0 || s >= 18 {
			t.Fatalf("slice %d out of range", s)
		}
	}
}

func mustGeneralized(t *testing.T, n int) *GeneralizedHash {
	t.Helper()
	h, err := NewGeneralizedHash(n)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewGeneralizedHashRejectsTiny(t *testing.T) {
	if _, err := NewGeneralizedHash(1); err == nil {
		t.Error("1-slice generalized hash accepted")
	}
}
