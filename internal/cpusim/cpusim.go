// Package cpusim simulates the processor the paper measures: cores with
// private L1d/L2 caches in front of the shared sliced LLC, cycle-accurate
// cost accounting for the full memory walk, a TSC per core, clflush, and
// the write-back behaviour that makes write-heavy loops slice-sensitive in
// aggregate even though individual stores retire at a flat cost (Fig 5b vs
// Fig 6b).
//
// The model is deterministic and single-threaded; "parallel" cores are
// separate Core values that share the LLC but keep independent cycle
// clocks, which is how the multi-core experiments aggregate OPS.
package cpusim

import (
	"fmt"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachesim"
	"sliceaware/internal/chash"
	"sliceaware/internal/interconnect"
	"sliceaware/internal/llc"
	"sliceaware/internal/phys"
)

// Machine is one simulated socket: cores, caches, LLC, physical memory.
type Machine struct {
	Profile *arch.Profile
	Topo    interconnect.Topology
	LLC     *llc.SlicedLLC
	Space   *phys.Space

	cores []*Core

	// privLines is a one-sided filter over lines that have ever been filled
	// into any core's L1 or L2. A clear bit proves no private cache holds
	// the line, so the DMA and back-invalidation paths can skip the
	// 2×cores invalidate sweep for lines no core ever touched — the common
	// case for packet-payload lines, which only the NIC writes. A set bit
	// is never cleared per-line (the line may since have been evicted), so
	// the filter only ever admits extra no-op invalidations, never skips a
	// required one.
	privLines cachesim.LineSet

	// Scratch for the batched DMA pass (addresses and their hashed slices).
	dmaPAs    []uint64
	dmaSlices []int
}

// AccessStats counts where a core's memory accesses were served from.
type AccessStats struct {
	L1Hits     uint64
	L2Hits     uint64
	DRAMOps    uint64
	Reads      uint64
	Writes     uint64
	Prefetches uint64 // hardware-prefetch fills issued on this core's behalf
}

// Core is one simulated CPU core with private L1d and L2.
type Core struct {
	id       int
	m        *Machine
	l1       *cachesim.Cache
	l2       *cachesim.Cache
	tsc      uint64
	catMask  cachesim.WayMask
	stats    AccessStats
	prefetch *prefetchState // nil when hardware prefetching is disabled
	tlb      *tlbState      // nil when TLB modelling is disabled
	lastMap  *phys.Mapping  // last mapping translated through (immutable)
}

// DefaultMemoryBytes is the simulated DRAM capacity (the paper's testbed
// machines carry 128 GB).
const DefaultMemoryBytes = 128 << 30

// NewMachine builds a machine for the profile with its canonical Complex
// Addressing hash.
func NewMachine(p *arch.Profile) (*Machine, error) {
	h, err := chash.ForProfileSlices(p.Slices)
	if err != nil {
		return nil, err
	}
	return NewMachineWithHash(p, h)
}

// NewMachineWithHash builds a machine using a caller-supplied hash, which
// the reverse-engineering tests use to plant known ground truth.
func NewMachineWithHash(p *arch.Profile, h chash.Hash) (*Machine, error) {
	return NewMachineWithHashAndMemory(p, h, DefaultMemoryBytes)
}

// NewMachineWithHashAndMemory additionally sets the DRAM capacity. The
// full-matrix hash-recovery experiment uses a larger space so physical
// addresses exercise every hashed bit.
func NewMachineWithHashAndMemory(p *arch.Profile, h chash.Hash, memBytes uint64) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	topo, err := interconnect.New(p)
	if err != nil {
		return nil, err
	}
	shared, err := llc.New(p, h)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Profile: p,
		Topo:    topo,
		LLC:     shared,
		Space:   phys.NewSpace(memBytes),
	}
	m.cores = make([]*Core, p.Cores)
	for i := range m.cores {
		m.cores[i] = &Core{
			id:      i,
			m:       m,
			l1:      cachesim.MustNew(fmt.Sprintf("core%d-L1d", i), p.L1D.Sets(), p.L1D.Ways),
			l2:      cachesim.MustNew(fmt.Sprintf("core%d-L2", i), p.L2.Sets(), p.L2.Ways),
			catMask: cachesim.AllWays,
		}
	}
	return m, nil
}

// Core returns core i.
func (m *Machine) Core(i int) *Core {
	if i < 0 || i >= len(m.cores) {
		panic(fmt.Sprintf("cpusim: core %d out of range 0..%d", i, len(m.cores)-1))
	}
	return m.cores[i]
}

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// SetCoreCATMask restricts which LLC ways fills triggered by this core may
// allocate into — Intel CAT with a per-core class of service.
func (m *Machine) SetCoreCATMask(core int, mask cachesim.WayMask) {
	m.Core(core).catMask = mask
}

// ResetCaches empties every cache level and all statistics; physical memory
// mappings are preserved.
func (m *Machine) ResetCaches() {
	m.LLC.FlushAll()
	m.LLC.ResetEvents()
	for _, c := range m.cores {
		c.l1.FlushAll()
		c.l2.FlushAll()
		c.stats = AccessStats{}
	}
	// Every private cache is now empty, so the one-sided filter may start
	// over exact.
	m.privLines.Clear()
}

// DMAWrite models the NIC writing size bytes at physical address pa:
// every touched line is invalidated in all private caches and allocated
// into the LLC through the socket-wide DDIO ways.
func (m *Machine) DMAWrite(pa uint64, size int) {
	if size <= 0 {
		return
	}
	first := pa >> 6
	last := (pa + uint64(size) - 1) >> 6
	n := int(last - first + 1)

	// Batched slice-hash pass: expand the write into its line addresses and
	// resolve every home slice in one LUT sweep, then fill each line in the
	// original order (fill order is pinned — LRU ages within a slice depend
	// on it).
	if cap(m.dmaPAs) < n {
		m.dmaPAs = make([]uint64, n)
		m.dmaSlices = make([]int, n)
	}
	pas, slices := m.dmaPAs[:n], m.dmaSlices[:n]
	for i := range pas {
		pas[i] = (first + uint64(i)) << 6
	}
	m.LLC.SliceOfBatch(pas, slices)

	for i := 0; i < n; i++ {
		line := first + uint64(i)
		if m.privLines.Has(line) {
			for _, c := range m.cores {
				c.l1.Invalidate(line)
				c.l2.Invalidate(line)
			}
		}
		v, _ := m.LLC.DMAInsertAt(slices[i], pas[i])
		m.backInvalidate(v)
	}
}

// backInvalidate enforces inclusivity after any LLC eviction: private
// copies of the victim line are dropped from every core.
func (m *Machine) backInvalidate(v cachesim.Victim) {
	if !v.Evicted || m.Profile.LLCMode != arch.Inclusive {
		return
	}
	if !m.privLines.Has(v.Line) {
		return
	}
	for _, c := range m.cores {
		c.l1.Invalidate(v.Line)
		c.l2.Invalidate(v.Line)
	}
}

// Cycles returns the core's consumed cycles (its TSC).
func (c *Core) Cycles() uint64 { return c.tsc }

// AddCycles charges n cycles of non-memory work to the core.
func (c *Core) AddCycles(n uint64) { c.tsc += n }

// Stats returns a copy of the core's access statistics.
func (c *Core) Stats() AccessStats { return c.stats }

// Read performs a load from a virtual address, charging and returning its
// cost in cycles (including any TLB walk when TLB modelling is enabled).
func (c *Core) Read(va uint64) uint64 {
	pa, walk := c.translate(va)
	return walk + c.ReadPhys(pa)
}

// Write performs a store to a virtual address, charging and returning its
// cost in cycles.
func (c *Core) Write(va uint64) uint64 {
	pa, walk := c.translate(va)
	return walk + c.WritePhys(pa)
}

// ReadPhys performs a load from a physical address.
func (c *Core) ReadPhys(pa uint64) uint64 {
	c.stats.Reads++
	cost := c.access(pa, false)
	c.tsc += cost
	return cost
}

// WritePhys performs a store to a physical address. Stores retire through
// the L1 write-back path: a hit costs the flat L1 latency regardless of the
// line's home slice; a miss write-allocates (paying the read path) and the
// deferred dirty write-backs surface later as eviction drains.
func (c *Core) WritePhys(pa uint64) uint64 {
	c.stats.Writes++
	cost := c.access(pa, true)
	c.tsc += cost
	return cost
}

// access walks the hierarchy and returns the access cost in cycles.
func (c *Core) access(pa uint64, write bool) uint64 {
	p := c.m.Profile
	line := pa >> 6

	if c.l1.Lookup(line, write) {
		c.stats.L1Hits++
		return uint64(p.L1Latency)
	}
	// The L2 prefetchers observe every L2 access (hit or miss) so a
	// stream stays armed while its prefetched lines are being consumed.
	defer c.maybePrefetch(line)
	if c.l2.Lookup(line, write) {
		c.stats.L2Hits++
		c.fillL1(line, write)
		return uint64(p.L2Latency)
	}

	hit, slice := c.m.LLC.Lookup(pa, false)
	penalty := uint64(c.m.Topo.Penalty(c.id, slice))
	if hit {
		cost := uint64(p.LLCBase) + penalty
		if p.LLCMode == arch.NonInclusive {
			// Victim LLC: promote the line to L2 and retire the LLC copy
			// (mostly-exclusive behaviour; Skylake keeps a copy only for
			// lines its reuse predictor flags, which we do not model).
			_, wasDirty := c.m.LLC.Invalidate(pa)
			c.fillL2(line, write || wasDirty)
		} else {
			c.fillL2(line, false)
		}
		c.fillL1(line, write)
		return cost
	}

	// DRAM: the request still traverses the fabric to the line's home
	// slice (whose CBo logged the miss) before heading to the memory
	// controller.
	c.stats.DRAMOps++
	cost := uint64(p.DRAMLatency) + penalty
	if p.LLCMode == arch.Inclusive {
		v, _ := c.m.LLC.Insert(pa, false, c.catMask)
		c.handleLLCVictim(v)
	}
	// Non-inclusive mode loads straight into L2, bypassing the LLC (§6).
	c.fillL2(line, false)
	c.fillL1(line, write)
	return cost
}

// fillL1 allocates a line into L1, draining any dirty victim into L2.
func (c *Core) fillL1(line uint64, dirty bool) {
	c.m.privLines.Add(line)
	v := c.l1.Insert(line, dirty, cachesim.AllWays)
	if v.Evicted && v.Dirty {
		// Write-back to L2 proceeds in the background; the store buffer
		// absorbs it, so no direct cost — unless it cascades below.
		c.fillL2FromVictim(v.Line)
	}
}

// fillL2 allocates a line into L2 (clean path from a demand fill).
func (c *Core) fillL2(line uint64, dirty bool) {
	c.m.privLines.Add(line)
	v := c.l2.Insert(line, dirty, cachesim.AllWays)
	if v.Evicted {
		c.handleL2Victim(v)
	}
}

// fillL2FromVictim sinks a dirty L1 victim into L2.
func (c *Core) fillL2FromVictim(line uint64) {
	c.m.privLines.Add(line)
	v := c.l2.Insert(line, true, cachesim.AllWays)
	if v.Evicted {
		c.handleL2Victim(v)
	}
}

// handleL2Victim routes an L2 victim toward the LLC. In inclusive mode only
// dirty data needs to move (the LLC already holds the line); in
// non-inclusive mode the LLC is a victim cache, so every L2 victim is
// installed. Draining a dirty line to its home slice stalls the write
// pipeline for part of the slice round-trip, which is what makes
// write-intensive loops slice-sensitive in aggregate (Fig 6b) even though
// each individual store is flat (Fig 5b).
func (c *Core) handleL2Victim(v cachesim.Victim) {
	p := c.m.Profile
	pa := v.Line << 6
	slice := c.m.LLC.SliceOf(pa)
	switch p.LLCMode {
	case arch.Inclusive:
		if v.Dirty {
			c.tsc += c.drainCost(slice)
			if c.m.LLC.Contains(pa) {
				lv, _ := c.m.LLC.Insert(pa, true, c.catMask) // refresh + dirty
				c.handleLLCVictim(lv)
			}
			// If the LLC already lost the line, the write-back continues
			// to DRAM; the drain cost above covers the core-visible stall.
		}
	case arch.NonInclusive:
		if v.Dirty {
			c.tsc += c.drainCost(slice)
		} else {
			// Clean victims move to the LLC too, but without waiting for
			// a write acknowledgement the stall is shorter.
			c.tsc += c.drainCost(slice) / 2
		}
		lv, _ := c.m.LLC.Insert(pa, v.Dirty, c.catMask)
		c.handleLLCVictim(lv)
	}
}

// drainCost is the core-visible portion of pushing a dirty line to a slice.
// Write-combining hides roughly half the round trip.
func (c *Core) drainCost(slice int) uint64 {
	p := c.m.Profile
	return (uint64(p.LLCBase) + uint64(c.m.Topo.Penalty(c.id, slice))) / 2
}

// handleLLCVictim enforces inclusivity: when an inclusive LLC evicts a
// line, all private copies must be back-invalidated.
func (c *Core) handleLLCVictim(v cachesim.Victim) {
	c.m.backInvalidate(v)
}

// FlushPhys executes clflush on a physical address: the line is written
// back (if dirty) and invalidated from every level of the hierarchy.
func (c *Core) FlushPhys(pa uint64) {
	line := pa >> 6
	for _, core := range c.m.cores {
		core.l1.Invalidate(line)
		core.l2.Invalidate(line)
	}
	c.m.LLC.Invalidate(pa)
	// clflush itself retires quickly; the cost that matters to the
	// measurement loops is the cold refill afterwards.
	c.tsc += uint64(c.m.Profile.L1Latency)
}

// L1 exposes the core's L1d cache for tests.
func (c *Core) L1() *cachesim.Cache { return c.l1 }

// L2 exposes the core's L2 cache for tests.
func (c *Core) L2() *cachesim.Cache { return c.l2 }
