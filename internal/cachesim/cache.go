// Package cachesim implements a set-associative cache model with LRU
// replacement, write-back dirty tracking, flush/invalidate, and per-request
// way masking (the mechanism behind Intel Cache Allocation Technology).
//
// The model is state-only: it tracks which lines are present, not their
// contents. Callers address it with line numbers (physical address >> 6).
// The same type backs L1, L2 and each LLC slice; inclusion policy is
// enforced one level up, in the cache-hierarchy walker.
//
// Internally the model is struct-of-arrays: line numbers and ages live in
// flat parallel arrays and validity/dirtiness are one bitmap word per set.
// A private cache (New) finds a line by comparing it against the ways of
// its set — at most 16 in the L1, L2 and TLB geometries, one row that
// victim selection reads anyway — so its memory is fixed at New however
// far apart the lines it sees are. The slices of a sliced LLC (NewGroup)
// instead share one exact line→slot index, which answers a probe, hit or
// miss, with one byte load and keeps a packet's consecutive lines on
// adjacent bytes of one page.
package cachesim

import (
	"fmt"
	"math/bits"
)

// WayMask restricts which ways an insertion may allocate into. Bit i set
// means way i is allowed. AllWays imposes no restriction.
type WayMask uint64

// AllWays allows allocation into every way of the cache.
const AllWays = WayMask(^uint64(0))

// Cache is one set-associative cache. Not safe for concurrent use; the
// simulated machine serializes accesses per cache.
type Cache struct {
	ways     int
	sets     int
	setMask  uint64
	lines    []uint64   // sets × ways, row-major; meaningful only where valid
	ages     []uint64   // sets × ways, row-major; larger = more recently used
	valid    []uint64   // one bitmap word per set, bit w = way w holds a line
	dirty    []uint64   // one bitmap word per set, bit w = way w is dirty
	index    *lineIndex // the group's shared line index; nil for a private cache
	slot     int        // this member's first slot in index: member·ways
	clock    uint64
	miss     uint64 // the line the last Lookup missed, absent while missOK
	missOK   bool
	occupied int

	policy   Policy
	bipCount uint64
}

// New creates a cache with the given geometry. sets must be a power of two.
func New(name string, sets, ways int) (*Cache, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cachesim: %s: sets must be a positive power of two, got %d", name, sets)
	}
	if ways <= 0 || ways > 64 {
		return nil, fmt.Errorf("cachesim: %s: ways must be in 1..64, got %d", name, ways)
	}
	return &Cache{
		ways:    ways,
		sets:    sets,
		setMask: uint64(sets - 1),
		lines:   make([]uint64, sets*ways),
		ages:    make([]uint64, sets*ways),
		valid:   make([]uint64, sets),
		dirty:   make([]uint64, sets),
	}, nil
}

// MaxGroupSlots is the most members × ways a NewGroup index can address.
const MaxGroupSlots = 255

// NewGroup creates n caches of one geometry that share a single line
// index — the slices of a sliced LLC. Each member behaves exactly as a
// cache from New provided a line is resident in at most one member at a
// time, which the slice hash guarantees. The index stores member·ways +
// way + 1 in a byte, so n·ways may not exceed MaxGroupSlots. Like a single
// Cache, a group is not safe for concurrent use.
func NewGroup(name string, n, sets, ways int) ([]*Cache, error) {
	if n*ways > MaxGroupSlots {
		return nil, fmt.Errorf("cachesim: %s: %d caches × %d ways exceed the %d slots of a shared index", name, n, ways, MaxGroupSlots)
	}
	index := new(lineIndex)
	group := make([]*Cache, n)
	for i := range group {
		c, err := New(name, sets, ways)
		if err != nil {
			return nil, err
		}
		c.index, c.slot = index, i*ways
		group[i] = c
	}
	return group, nil
}

// MustNew is New that panics on error, for wiring up fixed geometries.
func MustNew(name string, sets, ways int) *Cache {
	c, err := New(name, sets, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) setIndex(line uint64) int { return int(line & c.setMask) }

// find returns the way of set idx holding line, or -1. A group member
// reads the shared index and owns the entry only when it falls in its slot
// range. A private cache compares line against the set's valid ways,
// unless it is empty (an idle core's, under a DMA invalidation) or line is
// the one the last Lookup missed with nothing inserted since (the fill
// that follows a miss).
func (c *Cache) find(idx int, line uint64) int {
	if c.index != nil {
		if w := int(c.index.get(line)) - 1 - c.slot; uint(w) < uint(c.ways) {
			return w
		}
		return -1
	}
	if c.occupied == 0 || c.missOK && c.miss == line {
		return -1
	}
	for m := c.valid[idx]; m != 0; m &= m - 1 {
		if w := bits.TrailingZeros64(m); c.lines[idx*c.ways+w] == line {
			return w
		}
	}
	return -1
}

// setSlot records line's slot in a group's shared index (0 = absent, way
// w of this member = c.slot+w+1). Private caches keep no index.
func (c *Cache) setSlot(line uint64, slot int) {
	if c.index != nil {
		c.index.set(line, uint8(slot))
	}
}

// Lookup probes for a line. On a hit the line becomes most recently used
// and, if write is set, is marked dirty.
func (c *Cache) Lookup(line uint64, write bool) bool {
	idx := c.setIndex(line)
	w := c.find(idx, line)
	if w < 0 {
		c.miss, c.missOK = line, true
		return false
	}
	c.clock++
	c.ages[idx*c.ways+w] = c.clock
	if write {
		c.dirty[idx] |= 1 << uint(w)
	}
	return true
}

// Contains probes for a line without perturbing LRU state or statistics.
func (c *Cache) Contains(line uint64) bool { return c.find(c.setIndex(line), line) >= 0 }

// Victim describes a line displaced by an insertion.
type Victim struct {
	Line    uint64
	Dirty   bool
	Evicted bool // false when the insertion used an empty way
}

// Insert allocates a line, evicting the LRU line among the ways permitted
// by mask if the set is full there. If the line is already present it is
// refreshed in place (its dirty bit ORs with dirty) and no victim results.
func (c *Cache) Insert(line uint64, dirty bool, mask WayMask) Victim {
	idx := c.setIndex(line)
	base := idx * c.ways
	c.clock++

	// Already present: refresh.
	if w := c.find(idx, line); w >= 0 {
		c.ages[base+w] = c.clock
		if dirty {
			c.dirty[idx] |= 1 << uint(w)
		}
		return Victim{}
	}

	c.missOK = false

	// An empty in-range mask degenerates to all ways so a misconfigured CAT
	// class cannot wedge the cache.
	eff := c.effectiveMask(mask)
	var v Victim
	var victimWay int
	if inv := eff &^ c.valid[idx]; inv != 0 {
		// Prefer an invalid allowed way (lowest index first).
		victimWay = bits.TrailingZeros64(inv)
	} else {
		// Evict the LRU entry among allowed ways (earliest index wins ties).
		victimWay = -1
		for m := eff; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if victimWay < 0 || c.ages[base+w] < c.ages[base+victimWay] {
				victimWay = w
			}
		}
		vb := uint64(1) << uint(victimWay)
		v = Victim{Line: c.lines[base+victimWay], Dirty: c.dirty[idx]&vb != 0, Evicted: true}
		c.setSlot(v.Line, 0)
		c.occupied--
	}
	wb := uint64(1) << uint(victimWay)
	c.lines[base+victimWay] = line
	c.ages[base+victimWay] = c.insertionAge()
	c.valid[idx] |= wb
	if dirty {
		c.dirty[idx] |= wb
	} else {
		c.dirty[idx] &^= wb
	}
	c.setSlot(line, c.slot+victimWay+1)
	c.occupied++
	return v
}

// effectiveMask clips a WayMask to the cache's geometry; an empty result
// degenerates to all ways.
func (c *Cache) effectiveMask(mask WayMask) uint64 {
	all := ^uint64(0)
	if c.ways < 64 {
		all = 1<<uint(c.ways) - 1
	}
	if eff := uint64(mask) & all; eff != 0 {
		return eff
	}
	return all
}

// Invalidate removes a line if present, reporting whether it was there and
// whether it was dirty (i.e. required write-back, as clflush does).
func (c *Cache) Invalidate(line uint64) (present, dirty bool) {
	idx := c.setIndex(line)
	w := c.find(idx, line)
	if w < 0 {
		return false, false
	}
	wb := uint64(1) << uint(w)
	dirty = c.dirty[idx]&wb != 0
	c.valid[idx] &^= wb
	c.dirty[idx] &^= wb
	c.setSlot(line, 0)
	c.occupied--
	return true, dirty
}

// FlushAll invalidates every line, returning the number of dirty lines
// written back. A group member clears only its own lines from the index.
func (c *Cache) FlushAll() (writebacks int) {
	for idx := 0; idx < c.sets; idx++ {
		if c.valid[idx] == 0 {
			continue
		}
		for m := c.valid[idx]; c.index != nil && m != 0; m &= m - 1 {
			c.setSlot(c.lines[idx*c.ways+bits.TrailingZeros64(m)], 0)
		}
		wb := bits.OnesCount64(c.valid[idx] & c.dirty[idx])
		writebacks += wb
		c.valid[idx] = 0
		c.dirty[idx] = 0
	}
	c.occupied = 0
	return writebacks
}

// Lines returns all valid lines, useful for inclusion checks in tests.
func (c *Cache) Lines() []uint64 {
	out := make([]uint64, 0, c.occupied)
	for idx := 0; idx < c.sets; idx++ {
		base := idx * c.ways
		for m := c.valid[idx]; m != 0; m &= m - 1 {
			out = append(out, c.lines[base+bits.TrailingZeros64(m)])
		}
	}
	return out
}

// MaskLen returns the number of valid lines resident in the ways permitted
// by mask, across all sets — the occupancy of a CAT/DDIO partition. An
// empty mask degenerates to all ways, matching Insert's effectiveMask.
func (c *Cache) MaskLen(mask WayMask) int {
	if mask == AllWays || mask == 0 {
		return c.occupied
	}
	n := 0
	for idx := 0; idx < c.sets; idx++ {
		n += bits.OnesCount64(c.valid[idx] & uint64(mask))
	}
	return n
}

// MaskOfWays builds a WayMask of the first n ways (CAT-style contiguous
// low mask) — the "2W" configuration of §7 is MaskOfWays(2).
func MaskOfWays(n int) WayMask {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return AllWays
	}
	return WayMask(1<<uint(n) - 1)
}

// MaskOfWayRange builds a WayMask covering ways [lo, hi).
func MaskOfWayRange(lo, hi int) WayMask {
	if hi <= lo {
		return 0
	}
	return WayMask((uint64(1)<<uint(hi) - 1) &^ (uint64(1)<<uint(lo) - 1))
}
