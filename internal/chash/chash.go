// Package chash implements Intel's Complex Addressing — the undocumented
// hash that maps each 64 B cache line of physical memory to an LLC slice.
//
// For CPUs with 2ⁿ slices the hash is a linear (XOR) function of the
// physical-address bits: each output bit is the parity of a fixed subset of
// address bits (Maurice et al., RAID 2015; Fig 4 of the paper). The package
// provides that matrix form (XORHash) as the simulator's ground truth, plus
// a generalized hash (GeneralizedHash) for parts whose slice count is not a
// power of two, such as the 18-slice Skylake die of §6.
package chash

import (
	"fmt"
	"math/bits"
)

// AddressBits is the number of physical-address bits the hash considers.
// Real parts hash bits up to the top of the installed DRAM; 39 bits covers
// the 128 GB machines used in the paper.
const AddressBits = 39

// Hash maps a physical address to an LLC slice. Implementations must be
// pure functions of the address: the same address always yields the same
// slice, and addresses within one 64 B line yield the same slice.
type Hash interface {
	// Slice returns the slice index in [0, Slices()) for the line
	// containing the physical address pa.
	Slice(pa uint64) int
	// Slices returns the number of slices this hash distributes over.
	Slices() int
}

// XORHash is the linear hash used by CPUs with 2ⁿ slices. Masks[i] selects
// the physical-address bits XORed together to produce output bit i; the
// outputs concatenate into the slice index (output 0 is the LSB).
type XORHash struct {
	Masks []uint64
}

var _ Hash = (*XORHash)(nil)

// NewXORHash builds an XORHash and validates the masks.
func NewXORHash(masks []uint64) (*XORHash, error) {
	if len(masks) == 0 {
		return nil, fmt.Errorf("chash: need at least one output mask")
	}
	for i, m := range masks {
		if m == 0 {
			return nil, fmt.Errorf("chash: output mask %d is empty", i)
		}
		if m&((1<<6)-1) != 0 && m&((1<<6)-1) != m {
			// Bits below 6 select bytes within one line; a hash that mixes
			// them with higher bits would split cache lines across slices.
			return nil, fmt.Errorf("chash: output mask %d (%#x) uses sub-line address bits", i, m)
		}
		if m < 1<<6 {
			return nil, fmt.Errorf("chash: output mask %d (%#x) uses only sub-line bits", i, m)
		}
	}
	return &XORHash{Masks: append([]uint64(nil), masks...)}, nil
}

// Slice implements Hash.
func (h *XORHash) Slice(pa uint64) int {
	s := 0
	for i, m := range h.Masks {
		s |= int(bits.OnesCount64(pa&m)&1) << i
	}
	return s
}

// Slices implements Hash.
func (h *XORHash) Slices() int { return 1 << len(h.Masks) }

// Bit reports whether address bit b participates in output o.
func (h *XORHash) Bit(o, b int) bool { return h.Masks[o]>>uint(b)&1 == 1 }

// Matrix renders the hash as a (outputs × AddressBits) boolean matrix, the
// representation drawn in Fig 4. Row i is output bit i; column b is
// physical-address bit b.
func (h *XORHash) Matrix() [][]bool {
	m := make([][]bool, len(h.Masks))
	for i := range m {
		row := make([]bool, AddressBits)
		for b := 0; b < AddressBits; b++ {
			row[b] = h.Bit(i, b)
		}
		m[i] = row
	}
	return m
}

// Equal reports whether two XOR hashes are identical over AddressBits.
func (h *XORHash) Equal(o *XORHash) bool {
	if len(h.Masks) != len(o.Masks) {
		return false
	}
	mask := uint64(1)<<AddressBits - 1
	for i := range h.Masks {
		if h.Masks[i]&mask != o.Masks[i]&mask {
			return false
		}
	}
	return true
}

// Haswell8 returns the reverse-engineered Complex Addressing function of the
// 8-slice Xeon E5-2667 v3 (Fig 4 of the paper; first published by Maurice
// et al. for all Intel CPUs with 2ⁿ cores). Output bits:
//
//	o0 = ⊕ PA{6,10,12,14,16,17,18,20,22,24,25,26,27,28,30,32,33,35,36}
//	o1 = ⊕ PA{7,11,13,15,17,19,20,21,22,23,24,26,28,29,31,33,34,35,37}
//	o2 = ⊕ PA{8,12,13,16,19,22,23,26,27,30,31,34,35,36,37,38}
func Haswell8() *XORHash {
	h, err := NewXORHash([]uint64{
		maskOf(6, 10, 12, 14, 16, 17, 18, 20, 22, 24, 25, 26, 27, 28, 30, 32, 33, 35, 36),
		maskOf(7, 11, 13, 15, 17, 19, 20, 21, 22, 23, 24, 26, 28, 29, 31, 33, 34, 35, 37),
		maskOf(8, 12, 13, 16, 19, 22, 23, 26, 27, 30, 31, 34, 35, 36, 37, 38),
	})
	if err != nil {
		panic("chash: Haswell8 construction: " + err.Error())
	}
	return h
}

// Sandy2 returns the single-bit hash of 2-slice parts, useful in tests.
func Sandy2() *XORHash {
	h, err := NewXORHash([]uint64{
		maskOf(6, 10, 12, 14, 16, 17, 18, 20, 22, 24, 25, 26, 27, 28, 30, 32, 33),
	})
	if err != nil {
		panic("chash: Sandy2 construction: " + err.Error())
	}
	return h
}

func maskOf(bitsIn ...int) uint64 {
	var m uint64
	for _, b := range bitsIn {
		m |= 1 << uint(b)
	}
	return m
}

// GeneralizedHash models the Complex Addressing of parts whose slice count
// is not a power of two (e.g. the 18-slice Skylake Gold 6134). Following
// the structure inferred by later reverse-engineering work, it combines a
// linear XOR "base sequence" with a modular reduction: the address bits are
// XOR-folded into an intermediate value that is then reduced mod Slices.
// The exact constants are not architectural; what matters for the paper's
// experiments is line granularity and near-uniform distribution.
type GeneralizedHash struct {
	NumSlices int
	// fold masks mix address bits into the intermediate value.
	fold []uint64
}

var _ Hash = (*GeneralizedHash)(nil)

// NewGeneralizedHash builds a generalized hash over n slices.
func NewGeneralizedHash(n int) (*GeneralizedHash, error) {
	if n < 2 {
		return nil, fmt.Errorf("chash: generalized hash needs ≥2 slices, got %d", n)
	}
	// Five fold masks built from shifted versions of the Haswell sequences
	// give good avalanche across line addresses.
	base := Haswell8()
	fold := []uint64{
		base.Masks[0],
		base.Masks[1],
		base.Masks[2],
		base.Masks[0]<<3 | base.Masks[2]>>7,
		base.Masks[1]<<5 | base.Masks[0]>>9,
	}
	for i := range fold {
		fold[i] &^= (1 << 6) - 1 // never consult sub-line bits
		fold[i] &= 1<<AddressBits - 1
	}
	return &GeneralizedHash{NumSlices: n, fold: fold}, nil
}

// Slice implements Hash.
func (h *GeneralizedHash) Slice(pa uint64) int {
	line := pa >> 6
	// Fold the XOR parities into the line number, then finish with a
	// splitmix64-style mixer. Deterministic, line-granular, and uniform
	// over slices to within sampling noise.
	v := line
	for i, m := range h.fold {
		v |= uint64(bits.OnesCount64(pa&m)&1) << uint(48+i)
	}
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	v ^= v >> 31
	return int(v % uint64(h.NumSlices))
}

// Slices implements Hash.
func (h *GeneralizedHash) Slices() int { return h.NumSlices }

// ForProfileSlices returns the canonical hash for n slices: the Fig 4 matrix
// when n is a power of two ≤8 outputs, a generalized hash otherwise.
func ForProfileSlices(n int) (Hash, error) {
	if n >= 2 && n&(n-1) == 0 {
		outs := bits.TrailingZeros(uint(n))
		base := Haswell8()
		if outs <= len(base.Masks) {
			h, err := NewXORHash(base.Masks[:outs])
			if err != nil {
				return nil, err
			}
			return h, nil
		}
	}
	return NewGeneralizedHash(n)
}
