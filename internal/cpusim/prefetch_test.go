package cpusim

import (
	"testing"

	"sliceaware/internal/arch"
)

func TestPrefetchDisabledByDefault(t *testing.T) {
	m := newHaswell(t)
	mp := mapPage(t, m)
	c := m.Core(0)
	for i := 0; i < 64; i++ {
		c.Read(mp.VirtBase + uint64(i*64))
	}
	if c.Stats().Prefetches != 0 {
		t.Errorf("prefetches = %d with prefetching disabled", c.Stats().Prefetches)
	}
}

func TestAdjacentLinePrefetch(t *testing.T) {
	m := newHaswell(t)
	m.EnablePrefetch(PrefetchConfig{AdjacentLine: true})
	mp := mapPage(t, m)
	c := m.Core(0)

	va := mp.VirtBase + 8192
	pa := mp.Phys(va)
	c.Read(va)
	// The 128 B buddy must now be in L2 without ever being read.
	buddy := (pa >> 6) ^ 1
	if !c.L2().Contains(buddy) {
		t.Error("buddy line not prefetched into L2")
	}
	if c.Stats().Prefetches == 0 {
		t.Error("prefetch not counted")
	}
	// A read of the buddy is an L2 hit, not a DRAM access.
	cost := c.ReadPhys(buddy << 6)
	if cost != uint64(m.Profile.L2Latency) {
		t.Errorf("buddy read cost %d, want L2 hit %d", cost, m.Profile.L2Latency)
	}
}

func TestStreamerFollowsSequentialRuns(t *testing.T) {
	m := newHaswell(t)
	m.EnablePrefetch(PrefetchConfig{Streamer: true, StreamDepth: 2})
	mp := mapPage(t, m)
	c := m.Core(0)

	base := mp.VirtBase + 16384
	// Three sequential misses arm the streamer...
	c.Read(base)
	c.Read(base + 64)
	c.Read(base + 128)
	// ...so lines +3 and +4 should already be in L2.
	pa := mp.Phys(base)
	for _, ahead := range []uint64{3, 4} {
		if !c.L2().Contains(pa>>6 + ahead) {
			t.Errorf("line +%d not prefetched", ahead)
		}
	}
}

func TestPrefetchChargesNoCycles(t *testing.T) {
	a := arch.HaswellE52667v3()
	m1, err := NewMachine(a)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	m2.EnablePrefetch(PrefetchConfig{AdjacentLine: true, Streamer: true})
	p1 := mapPage(t, m1)
	p2 := mapPage(t, m2)

	// A strided pattern (every 4th line) defeats both prefetchers'
	// usefulness: identical demand misses, so identical demand cycles.
	c1, c2 := m1.Core(0), m2.Core(0)
	for i := 0; i < 256; i += 4 {
		c1.Read(p1.VirtBase + uint64(i*64))
		c2.Read(p2.VirtBase + uint64(i*64))
	}
	if c1.Cycles() != c2.Cycles() {
		t.Errorf("prefetching changed demand-access cycles: %d vs %d", c1.Cycles(), c2.Cycles())
	}
}

func TestPrefetchSpeedsUpSequentialSweeps(t *testing.T) {
	run := func(enable bool) uint64 {
		m := newHaswell(t)
		if enable {
			m.EnablePrefetch(PrefetchConfig{AdjacentLine: true, Streamer: true, StreamDepth: 4})
		}
		mp := mapPage(t, m)
		c := m.Core(0)
		for i := 0; i < 4096; i++ {
			c.Read(mp.VirtBase + uint64(i*64))
		}
		return c.Cycles()
	}
	off := run(false)
	on := run(true)
	if on >= off {
		t.Errorf("sequential sweep with prefetch (%d cycles) not faster than without (%d)", on, off)
	}
}

func TestPrefetchNeverCrossesPages(t *testing.T) {
	m := newHaswell(t)
	m.EnablePrefetch(PrefetchConfig{AdjacentLine: true, Streamer: true})
	mp := mapPage(t, m)
	c := m.Core(0)

	// Read the last three lines of a 4 kB page; nothing from the next
	// page may be prefetched.
	pageStart := mp.VirtBase + 4096*10
	for i := 61; i < 64; i++ {
		c.Read(pageStart + uint64(i*64))
	}
	nextPageLine := mp.Phys(pageStart+4096) >> 6
	if c.L2().Contains(nextPageLine) || c.L1().Contains(nextPageLine) {
		t.Error("prefetcher crossed a page boundary")
	}
}
