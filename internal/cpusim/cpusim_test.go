package cpusim

import (
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachesim"
	"sliceaware/internal/phys"
)

func newHaswell(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newSkylake(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(arch.SkylakeGold6134())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mapPage(t *testing.T, m *Machine) *phys.Mapping {
	t.Helper()
	mp, err := m.Space.MapHugepage1G()
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestAccessLatencyLadder(t *testing.T) {
	m := newHaswell(t)
	mp := mapPage(t, m)
	c := m.Core(0)
	p := m.Profile
	va := mp.VirtBase

	cold := c.Read(va)
	if cold < uint64(p.DRAMLatency) {
		t.Errorf("cold read cost %d < DRAM latency %d", cold, p.DRAMLatency)
	}
	if got := c.Read(va); got != uint64(p.L1Latency) {
		t.Errorf("warm read cost %d, want L1 %d", got, p.L1Latency)
	}
	st := c.Stats()
	if st.DRAMOps != 1 || st.L1Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLLCHitCostDependsOnSlice(t *testing.T) {
	m := newHaswell(t)
	mp := mapPage(t, m)
	c := m.Core(0)

	// Find one address per slice, load each into the LLC only (evict from
	// L1/L2 by flushing private levels via a fresh conflicting walk is
	// fiddly; instead load on another core so core 0's private caches
	// stay cold — the LLC is shared).
	loader := m.Core(1)
	costs := make([]uint64, m.Profile.Slices)
	for s := 0; s < m.Profile.Slices; s++ {
		var va uint64
		for off := uint64(0); ; off += 64 {
			pa := mp.PhysBase + off
			if m.LLC.SliceOf(pa) == s {
				va = mp.VirtBase + off
				break
			}
		}
		loader.Read(va) // now in LLC (and loader's private caches)
		costs[s] = c.Read(va)
		wantBase := uint64(m.Profile.LLCBase + m.Topo.Penalty(0, s))
		if costs[s] != wantBase {
			t.Errorf("slice %d LLC hit = %d cycles, want %d", s, costs[s], wantBase)
		}
	}
	// Bimodal check from core 0 (Fig 5a shape).
	if costs[0] >= costs[1] || costs[2] >= costs[3] {
		t.Errorf("even slices should be cheaper from core 0: %v", costs)
	}
}

func TestWriteFlatButReadLadder(t *testing.T) {
	m := newHaswell(t)
	mp := mapPage(t, m)
	c := m.Core(0)
	va := mp.VirtBase + 4096

	c.Read(va) // warm to L1
	if got := c.Write(va); got != uint64(m.Profile.L1Latency) {
		t.Errorf("L1-hit store cost %d, want flat %d (Fig 5b)", got, m.Profile.L1Latency)
	}
}

func TestDirtyEvictionChargesDrainStalls(t *testing.T) {
	// Stream far more lines than L1+L2 can hold, once as loads and once as
	// stores on a fresh machine. A store miss pays the load path, so only
	// the dirty victims draining to the LLC can make the stores cost more.
	stream := func(write bool) uint64 {
		m := newHaswell(t)
		mp := mapPage(t, m)
		c := m.Core(0)
		lines := (m.Profile.L1D.SizeBytes + m.Profile.L2.SizeBytes) / 64 * 4
		for i := 0; i < lines; i++ {
			if va := mp.VirtBase + uint64(i*64); write {
				c.Write(va)
			} else {
				c.Read(va)
			}
		}
		return c.Cycles()
	}
	if loads, stores := stream(false), stream(true); stores <= loads {
		t.Errorf("streaming stores took %d cycles, loads %d: no write-back stalls charged", stores, loads)
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	m := newHaswell(t)
	mp := mapPage(t, m)
	c := m.Core(0)
	p := m.Profile

	target := mp.PhysBase
	line := target >> 6
	c.ReadPhys(target)
	if !c.L1().Contains(line) {
		t.Fatal("line not in L1 after read")
	}
	// Evict the line from the LLC by having another core stream
	// conflicting addresses (same slice, same LLC set) through it.
	loader := m.Core(1)
	slice := m.LLC.SliceOf(target)
	llcSetStride := uint64(p.LLCSlice.Sets() * 64)
	inserted := 0
	for a := target + llcSetStride; inserted < p.LLCSlice.Ways+4; a += llcSetStride {
		if m.LLC.SliceOf(a) == slice {
			loader.ReadPhys(a)
			inserted++
		}
	}
	if m.LLC.Contains(target) {
		t.Fatal("target still in LLC; conflict fill insufficient")
	}
	if c.L1().Contains(line) || c.L2().Contains(line) {
		t.Error("inclusive LLC eviction did not back-invalidate private caches")
	}
}

func TestNonInclusiveVictimPath(t *testing.T) {
	m := newSkylake(t)
	mp := mapPage(t, m)
	c := m.Core(0)

	va := mp.VirtBase
	pa := mp.Phys(va)
	c.Read(va)
	// Skylake: a DRAM fill goes straight to L2, not the LLC (§6).
	if m.LLC.Contains(pa) {
		t.Error("non-inclusive LLC was filled on a DRAM read")
	}
	if !c.L2().Contains(pa >> 6) {
		t.Error("L2 missing the line after DRAM read")
	}
	// Stream enough new lines through L2 to evict the target; the victim
	// must land in the LLC (victim-cache behaviour).
	lines := m.Profile.L2.SizeBytes/64*2 + m.Profile.L1D.SizeBytes/64
	for i := 1; i <= lines; i++ {
		c.Read(va + uint64(i*64))
	}
	if c.L2().Contains(pa >> 6) {
		t.Fatal("target still in L2 after streaming")
	}
	if !m.LLC.Contains(pa) {
		t.Error("L2 victim did not land in the victim LLC")
	}
}

func TestFlushEvictsEverywhere(t *testing.T) {
	m := newHaswell(t)
	mp := mapPage(t, m)
	c := m.Core(0)
	va := mp.VirtBase + 64
	pa := mp.Phys(va)

	c.Read(va)
	c.FlushPhys(pa)
	if c.L1().Contains(pa>>6) || c.L2().Contains(pa>>6) || m.LLC.Contains(pa) {
		t.Error("clflush left copies behind")
	}
	// Next read is cold again.
	if got := c.Read(va); got < uint64(m.Profile.DRAMLatency) {
		t.Errorf("read after flush cost %d, want ≥ DRAM", got)
	}
}

func TestDMAWriteLandsInLLCAndInvalidatesPrivate(t *testing.T) {
	m := newHaswell(t)
	mp := mapPage(t, m)
	c := m.Core(0)
	pa := mp.PhysBase + 128

	c.ReadPhys(pa) // core holds a stale copy
	m.DMAWrite(pa, 256)
	if c.L1().Contains(pa >> 6) {
		t.Error("DMA left a stale L1 copy")
	}
	for off := uint64(0); off < 256; off += 64 {
		if !m.LLC.Contains(pa + off) {
			t.Errorf("DMA line +%d not in LLC", off)
		}
	}
	// Cost of reading DMA'd data is an LLC hit, not DRAM (DDIO's point).
	slice := m.LLC.SliceOf(pa)
	want := uint64(m.Profile.LLCBase + m.Topo.Penalty(0, slice))
	if got := c.ReadPhys(pa); got != want {
		t.Errorf("read of DMA'd line = %d cycles, want LLC hit %d", got, want)
	}
}

func TestCATMaskRestrictsCoreFills(t *testing.T) {
	m := newHaswell(t)
	mp := mapPage(t, m)
	p := m.Profile
	m.SetCoreCATMask(0, cachesim.MaskOfWays(2))
	c := m.Core(0)

	// Stream many same-set, same-slice lines through core 0; with a
	// 2-way mask at most 2 may survive in that LLC set.
	target := mp.PhysBase
	slice := m.LLC.SliceOf(target)
	stride := uint64(p.LLCSlice.Sets() * 64)
	var addrs []uint64
	for a := target; len(addrs) < 8 && a < mp.PhysBase+mp.Size; a += stride {
		if m.LLC.SliceOf(a) == slice {
			addrs = append(addrs, a)
		}
	}
	for _, a := range addrs {
		c.ReadPhys(a)
	}
	live := 0
	for _, a := range addrs {
		if m.LLC.Contains(a) {
			live++
		}
	}
	if live > 2 {
		t.Errorf("%d lines survive in a CAT-masked set, want ≤2", live)
	}
}

func TestResetCaches(t *testing.T) {
	m := newHaswell(t)
	mp := mapPage(t, m)
	c := m.Core(0)
	c.Read(mp.VirtBase)
	m.ResetCaches()
	if c.Stats() != (AccessStats{}) {
		t.Error("stats survived ResetCaches")
	}
	if m.LLC.Contains(mp.PhysBase) {
		t.Error("LLC contents survived ResetCaches")
	}
	// TSC intentionally survives (it's a wall clock); verify mapping does too.
	if _, err := m.Space.Translate(mp.VirtBase); err != nil {
		t.Errorf("mapping lost: %v", err)
	}
}

func TestCoreAccessors(t *testing.T) {
	m := newHaswell(t)
	if m.Cores() != 8 {
		t.Fatalf("Cores = %d", m.Cores())
	}
	c := m.Core(3)
	c.AddCycles(10)
	if c.Cycles() != 10 {
		t.Errorf("Cycles = %d", c.Cycles())
	}
	defer func() {
		if recover() == nil {
			t.Error("Core(99) did not panic")
		}
	}()
	m.Core(99)
}
