package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicHitMiss(t *testing.T) {
	c := MustNew("t", 4, 2)
	if c.Lookup(0, false) {
		t.Error("hit in empty cache")
	}
	c.Insert(0, false, AllWays)
	if !c.Lookup(0, false) {
		t.Error("miss after insert")
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew("t", 1, 2) // fully associative, 2 lines
	c.Insert(1, false, AllWays)
	c.Insert(2, false, AllWays)
	c.Lookup(1, false) // 1 becomes MRU; 2 is now LRU
	v := c.Insert(3, false, AllWays)
	if !v.Evicted || v.Line != 2 {
		t.Errorf("victim = %+v, want line 2 evicted", v)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Errorf("post-eviction contents wrong: %v", c.Lines())
	}
}

func TestDirtyTracking(t *testing.T) {
	c := MustNew("t", 1, 1)
	c.Insert(1, false, AllWays)
	c.Lookup(1, true) // store marks dirty
	v := c.Insert(2, false, AllWays)
	if !v.Evicted || !v.Dirty {
		t.Errorf("dirty victim not reported: %+v", v)
	}
}

func TestInsertRefreshesExisting(t *testing.T) {
	c := MustNew("t", 1, 2)
	c.Insert(1, false, AllWays)
	c.Insert(2, false, AllWays)
	v := c.Insert(1, true, AllWays) // refresh, now dirty and MRU
	if v.Evicted {
		t.Errorf("refresh evicted %+v", v)
	}
	if c.MaskLen(AllWays) != 2 {
		t.Errorf("occupancy = %d, want 2", c.MaskLen(AllWays))
	}
	v = c.Insert(3, false, AllWays)
	if v.Line != 2 {
		t.Errorf("LRU after refresh should be 2, evicted %d", v.Line)
	}
	// line 1 must have kept its dirty bit through the refresh
	_, dirty := c.Invalidate(1)
	if !dirty {
		t.Error("refresh lost the dirty bit")
	}
}

func TestWayMaskConfinesAllocation(t *testing.T) {
	c := MustNew("t", 1, 4)
	low := MaskOfWays(2)             // ways 0,1
	high := MaskOfWayRange(2, 4)     // ways 2,3
	for i := uint64(0); i < 8; i++ { // 8 inserts through 2 allowed ways
		c.Insert(100+i, false, low)
	}
	// Only 2 lines can survive in the low partition.
	if got := c.MaskLen(AllWays); got != 2 {
		t.Fatalf("occupancy = %d, want 2 (mask must confine)", got)
	}
	c.Insert(1, false, high)
	c.Insert(2, false, high)
	if c.MaskLen(AllWays) != 4 {
		t.Fatalf("occupancy = %d, want 4", c.MaskLen(AllWays))
	}
	// Filling the high partition further must never displace low lines.
	c.Insert(3, false, high)
	if !c.Contains(106) || !c.Contains(107) {
		t.Error("high-partition insert displaced low-partition lines")
	}
}

func TestEmptyMaskFallsBackToAllWays(t *testing.T) {
	c := MustNew("t", 1, 2)
	c.Insert(1, false, 0)
	c.Insert(2, false, 0)
	if c.MaskLen(AllWays) != 2 {
		t.Errorf("empty mask wedged allocation: occupancy = %d", c.MaskLen(AllWays))
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := MustNew("t", 2, 2)
	c.Insert(0, true, AllWays)
	c.Insert(1, false, AllWays)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Errorf("Invalidate(0) = %v,%v want true,true", present, dirty)
	}
	present, _ = c.Invalidate(0)
	if present {
		t.Error("double invalidate reported present")
	}
	c.Insert(2, true, AllWays)
	if wb := c.FlushAll(); wb != 1 {
		t.Errorf("FlushAll writebacks = %d, want 1", wb)
	}
	if c.MaskLen(AllWays) != 0 {
		t.Errorf("occupancy after flush = %d", c.MaskLen(AllWays))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("t", 3, 2); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New("t", 0, 2); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := New("t", 4, 0); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New("t", 4, 65); err == nil {
		t.Error("65 ways accepted")
	}
}

// Property: occupancy never exceeds capacity, and a just-inserted line is
// always present.
func TestOccupancyInvariant(t *testing.T) {
	c := MustNew("t", 8, 4)
	f := func(lines []uint64) bool {
		for _, l := range lines {
			c.Insert(l, l%3 == 0, AllWays)
			if !c.Contains(l) {
				return false
			}
			if c.MaskLen(AllWays) > c.sets*c.ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: no duplicate lines ever exist in the cache.
func TestNoDuplicateLines(t *testing.T) {
	c := MustNew("t", 4, 4)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		l := rng.Uint64() % 64
		switch rng.Intn(3) {
		case 0:
			c.Insert(l, rng.Intn(2) == 0, AllWays)
		case 1:
			c.Lookup(l, rng.Intn(2) == 0)
		case 2:
			c.Invalidate(l)
		}
	}
	seen := map[uint64]bool{}
	for _, l := range c.Lines() {
		if seen[l] {
			t.Fatalf("duplicate line %d", l)
		}
		seen[l] = true
	}
	if len(seen) != c.MaskLen(AllWays) {
		t.Errorf("occupancy = %d but %d distinct lines", c.MaskLen(AllWays), len(seen))
	}
}

// Property: a line inserted into set s lands only where its index maps;
// lines with different set indices never evict each other.
func TestSetIsolation(t *testing.T) {
	c := MustNew("t", 4, 1)
	c.Insert(0, false, AllWays) // set 0
	c.Insert(1, false, AllWays) // set 1
	c.Insert(4, false, AllWays) // set 0 again → evicts 0, not 1
	if c.Contains(0) {
		t.Error("line 0 survived a conflicting insert")
	}
	if !c.Contains(1) {
		t.Error("line 1 was evicted by a different set's insert")
	}
}

func TestMaskHelpers(t *testing.T) {
	if MaskOfWays(0) != 0 {
		t.Error("MaskOfWays(0) != 0")
	}
	if MaskOfWays(2) != 0b11 {
		t.Errorf("MaskOfWays(2) = %b", MaskOfWays(2))
	}
	if MaskOfWays(64) != AllWays || MaskOfWays(100) != AllWays {
		t.Error("MaskOfWays should saturate at AllWays")
	}
	if MaskOfWayRange(2, 4) != 0b1100 {
		t.Errorf("MaskOfWayRange(2,4) = %b", MaskOfWayRange(2, 4))
	}
	if MaskOfWayRange(4, 2) != 0 {
		t.Error("inverted range should be empty")
	}
}

// A private cache's memory is fixed at New: inserting (into all ways or a
// 2-way partition), probing and invalidating lines 2^20 apart — each in a
// region no earlier line touched — allocates nothing.
func TestPrivateCacheAllocatesNothingAfterNew(t *testing.T) {
	c := MustNew("l1d", 64, 8) // the L1D geometry of both arch profiles
	line := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		line += 1 << 20
		c.Insert(line, true, AllWays)
		c.Insert(line+1, true, MaskOfWayRange(6, 8))
		c.Lookup(line, false)
		c.Invalidate(line - 1<<21)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per operation on a private cache, want 0", allocs)
	}
}

func TestNewGroupSharesOneIndex(t *testing.T) {
	if _, err := NewGroup("g", 13, 4, 20); err == nil {
		t.Error("13×20 slots accepted; the shared index holds 255")
	}
	g, err := NewGroup("g", 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	g[0].Insert(8, true, AllWays)
	g[1].Insert(9, false, AllWays)
	if g[1].Contains(8) || g[0].Contains(9) || !g[0].Contains(8) || !g[1].Contains(9) {
		t.Error("a member answered for a line the other member holds")
	}
	if wb := g[0].FlushAll(); wb != 1 || g[0].Contains(8) || !g[1].Contains(9) {
		t.Errorf("FlushAll of one member: %d writebacks, other member's line kept = %v", wb, g[1].Contains(9))
	}
}
