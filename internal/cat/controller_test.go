package cat

import (
	"math/bits"
	"testing"

	"sliceaware/internal/cachesim"
)

// waysOf returns how many ways a class currently owns.
func waysOf(c *Controller, cos int) int { return bits.OnesCount64(uint64(c.masks[cos])) }

func TestControllerDefaults(t *testing.T) {
	m := newSkylake(t)
	c, err := NewController(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.masks) != 4 {
		t.Errorf("COS count = %d", len(c.masks))
	}
	// Every COS starts with the full 11-way mask; every core in COS0.
	for cos := 0; cos < 4; cos++ {
		if w := waysOf(c, cos); w != 11 {
			t.Errorf("COS%d ways = %d", cos, w)
		}
	}
	for core := 0; core < m.Cores(); core++ {
		if cos := c.assoc[core]; cos != 0 {
			t.Errorf("core %d starts in COS%d", core, cos)
		}
	}
}

func TestControllerValidation(t *testing.T) {
	m := newSkylake(t)
	if _, err := NewController(m, 0); err == nil {
		t.Error("0 COS accepted")
	}
	if _, err := NewController(m, 17); err == nil {
		t.Error("17 COS accepted")
	}
	c, err := NewController(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetCapacityMask(0, 0); err == nil {
		t.Error("empty mask accepted")
	}
	if err := c.SetCapacityMask(0, 1<<12); err == nil {
		t.Error("mask beyond 11 ways accepted")
	}
	if err := c.SetCapacityMask(0, 0b101); err == nil {
		t.Error("non-contiguous mask accepted (hardware requires contiguity)")
	}
	if err := c.SetCapacityMask(9, 0b11); err == nil {
		t.Error("bad COS accepted")
	}
	if err := c.Associate(99, 0); err == nil {
		t.Error("bad core accepted")
	}
	if err := c.Associate(0, 9); err == nil {
		t.Error("bad COS accepted")
	}
}

func TestControllerIsolatesFills(t *testing.T) {
	m := newSkylake(t)
	c, err := NewController(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	// COS1 = low 2 ways for core 0; COS2 = the rest for core 1.
	if err := c.SetCapacityMask(1, 0b11); err != nil {
		t.Fatal(err)
	}
	if err := c.SetCapacityMask(2, uint64(cachesim.MaskOfWayRange(2, 11))); err != nil {
		t.Fatal(err)
	}
	if err := c.Associate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Associate(1, 2); err != nil {
		t.Fatal(err)
	}
	if w := waysOf(c, 1); w != 2 {
		t.Errorf("COS1 ways = %d", w)
	}
	if cos := c.assoc[0]; cos != 1 {
		t.Errorf("core 0 in COS%d", cos)
	}

	// Re-programming a mask must re-apply to already-associated cores:
	// verified through observable fill behaviour — core 0 streams many
	// same-set lines; only its 2 ways' worth survive in the LLC.
	mp, err := m.Space.MapHugepage1G()
	if err != nil {
		t.Fatal(err)
	}
	target := mp.PhysBase
	slice := m.LLC.SliceOf(target)
	stride := uint64(m.Profile.LLCSlice.Sets() * 64)
	var addrs []uint64
	for a := target; len(addrs) < 8 && a < mp.PhysBase+mp.Size; a += stride {
		if m.LLC.SliceOf(a) == slice {
			addrs = append(addrs, a)
		}
	}
	core := m.Core(0)
	// Skylake is non-inclusive: push lines into the LLC via L2 eviction.
	for _, a := range addrs {
		core.ReadPhys(a)
	}
	l2Stride := uint64(m.Profile.L2.Sets() * 64)
	for w := 1; w <= m.Profile.L2.Ways+1; w++ {
		core.ReadPhys(target + 63*stride + uint64(w)*l2Stride)
	}
	for _, a := range addrs {
		core.ReadPhys(a) // cycle again to force LLC insertions
	}
	live := 0
	for _, a := range addrs {
		if m.LLC.Contains(a) {
			live++
		}
	}
	if live > 2 {
		t.Errorf("%d lines live in a 2-way COS set, want ≤2", live)
	}
}
