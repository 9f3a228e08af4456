package chash

import (
	"fmt"
	"math/rand"
	"testing"

	"sliceaware/internal/arch"
)

// TestSliceLUTAgreesWithHashes is the property test behind the LUT: for
// every hash the simulator can deploy — the canonical hash of each arch
// profile's slice count, plus the small-part XOR matrices — the LUT must
// agree with the wrapped Slice on random addresses across the whole
// physical range, and on the adversarial low/high corners.
func TestSliceLUTAgreesWithHashes(t *testing.T) {
	hashes := map[string]Hash{
		"Sandy2":   Sandy2(),
		"Haswell8": Haswell8(),
	}
	for _, p := range []*arch.Profile{arch.HaswellE52667v3(), arch.SkylakeGold6134()} {
		h, err := ForProfileSlices(p.Slices)
		if err != nil {
			t.Fatal(err)
		}
		hashes[fmt.Sprintf("profile(%s,%d slices)", p.Name, p.Slices)] = h
	}
	for _, n := range []int{4, 18} {
		h, err := ForProfileSlices(n)
		if err != nil {
			t.Fatal(err)
		}
		hashes[fmt.Sprintf("canonical(%d)", n)] = h
	}

	for name, h := range hashes {
		t.Run(name, func(t *testing.T) {
			lut := NewSliceLUT(h)
			if lut.Slices() != h.Slices() {
				t.Fatalf("Slices() = %d, want %d", lut.Slices(), h.Slices())
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 200000; i++ {
				pa := rng.Uint64() & (1<<AddressBits - 1)
				if got, want := lut.Slice(pa), h.Slice(pa); got != want {
					t.Fatalf("Slice(%#x) = %d, want %d", pa, got, want)
				}
			}
			// Corners: consecutive lines at the bottom and top of the range.
			for i := 0; i < 4096; i++ {
				for _, pa := range []uint64{uint64(i) * 64, 1<<AddressBits - 1 - uint64(i)*64} {
					if got, want := lut.Slice(pa), h.Slice(pa); got != want {
						t.Fatalf("Slice(%#x) = %d, want %d", pa, got, want)
					}
				}
			}
		})
	}
}

// TestSliceLUTFallback pins the delegate path for hash types the LUT has
// no tables for.
func TestSliceLUTFallback(t *testing.T) {
	h := oddHash{}
	lut := NewSliceLUT(h)
	for pa := uint64(0); pa < 1<<16; pa += 64 {
		if got, want := lut.Slice(pa), h.Slice(pa); got != want {
			t.Fatalf("Slice(%#x) = %d, want %d", pa, got, want)
		}
	}
}

// TestSliceLUTOfLUT pins that re-wrapping a LUT is a copy, not a
// delegation chain.
func TestSliceLUTOfLUT(t *testing.T) {
	base := Haswell8()
	l1 := NewSliceLUT(base)
	l2 := NewSliceLUT(l1)
	if l2.fallback != nil {
		t.Fatal("LUT of LUT should copy tables, not delegate")
	}
	for pa := uint64(0); pa < 1<<16; pa += 64 {
		if l1.Slice(pa) != l2.Slice(pa) {
			t.Fatalf("copied LUT disagrees at %#x", pa)
		}
	}
}

type oddHash struct{}

func (oddHash) Slice(pa uint64) int { return int(pa>>6) % 3 }
func (oddHash) Slices() int         { return 3 }

var sinkSlice int

// The slice hash runs on every simulated memory access, so evaluating it
// allocates nothing: bit by bit, through a LUT, or over a batch.
func TestSliceHashAllocatesNothing(t *testing.T) {
	xor := Haswell8()
	gen, err := NewGeneralizedHash(18)
	if err != nil {
		t.Fatal(err)
	}
	xorLUT, genLUT := NewSliceLUT(xor), NewSliceLUT(gen)
	pas := make([]uint64, 256)
	for i := range pas {
		pas[i] = 0x2_0000_0000 + uint64(i)*64
	}
	out := make([]int, len(pas))
	pa := uint64(0)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"XORHash.Slice", func() { pa += 64; sinkSlice = xor.Slice(pa) }},
		{"GeneralizedHash.Slice", func() { pa += 64; sinkSlice = gen.Slice(pa) }},
		{"SliceLUT.Slice (XOR)", func() { pa += 64; sinkSlice = xorLUT.Slice(pa) }},
		{"SliceLUT.Slice (generalized)", func() { pa += 64; sinkSlice = genLUT.Slice(pa) }},
		{"SliceOfBatch", func() { xorLUT.SliceOfBatch(pas, out) }},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// The benchmark pair quantifies the LUT's win over the popcount loop on
// the Haswell 8-slice matrix — the hash on the simulator's hottest path.
func BenchmarkXORHashSlice(b *testing.B) {
	h := Haswell8()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSlice = h.Slice(uint64(i) * 64)
	}
}

func BenchmarkSliceLUT(b *testing.B) {
	l := NewSliceLUT(Haswell8())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSlice = l.Slice(uint64(i) * 64)
	}
}

func BenchmarkGeneralizedHashSlice(b *testing.B) {
	h, err := NewGeneralizedHash(18)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSlice = h.Slice(uint64(i) * 64)
	}
}

func BenchmarkSliceLUTGeneralized(b *testing.B) {
	h, err := NewGeneralizedHash(18)
	if err != nil {
		b.Fatal(err)
	}
	l := NewSliceLUT(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSlice = l.Slice(uint64(i) * 64)
	}
}
