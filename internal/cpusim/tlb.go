package cpusim

import (
	"sliceaware/internal/cachesim"
	"sliceaware/internal/phys"
)

// TLB modelling. §3 of the paper stresses that its slice-aware speedups
// come from LLC placement, not from hugepages avoiding TLB misses ("It is
// expected that one would observe the same improvement when using 4 kB or
// 2 MB pages"). With a TLB in the model that claim becomes testable: the
// relative speedup is page-size independent, while absolute times do pay
// page walks once a working set outruns the TLB's 4 kB reach.
//
// Like hardware prefetching, the TLB is off by default so calibrated
// experiments are unaffected; enable per machine with EnableTLB.

// TLBConfig sizes the per-core TLB. Like the hardware (Haswell's STLB is
// 1024 entries, 8-way), the TLB is set-associative with 8 ways; entry
// counts are rounded down to a power-of-two set count.
type TLBConfig struct {
	// Entries4K is the 4 kB-page reach of the unified second-level TLB.
	// Default 1024.
	Entries4K int
	// EntriesHuge is the hugepage (2 MB/1 GB) entry count. Default 16.
	EntriesHuge int
	// WalkCycles is the page-walk cost on a miss. Default 40.
	WalkCycles int
}

type tlbState struct {
	small *cachesim.Cache // 4 kB translations, fully associative
	huge  *cachesim.Cache // 2 MB/1 GB translations
	walk  uint64

	hits, misses uint64
}

// EnableTLB attaches a TLB to every core.
func (m *Machine) EnableTLB(cfg TLBConfig) {
	if cfg.Entries4K <= 0 {
		cfg.Entries4K = 1024
	}
	if cfg.EntriesHuge <= 0 {
		cfg.EntriesHuge = 16
	}
	if cfg.WalkCycles <= 0 {
		cfg.WalkCycles = 40
	}
	for _, c := range m.cores {
		c.tlb = &tlbState{
			small: newTLBArray("stlb-4k", cfg.Entries4K),
			huge:  newTLBArray("stlb-huge", cfg.EntriesHuge),
			walk:  uint64(cfg.WalkCycles),
		}
	}
}

// newTLBArray builds an 8-way set-associative translation array of at
// least one set, with the set count rounded down to a power of two.
func newTLBArray(name string, entries int) *cachesim.Cache {
	ways := 8
	if entries < ways {
		ways = entries
	}
	sets := 1
	for sets*2*ways <= entries {
		sets *= 2
	}
	return cachesim.MustNew(name, sets, ways)
}

// TLBStats reports a core's TLB hits and misses since EnableTLB.
func (c *Core) TLBStats() (hits, misses uint64) {
	if c.tlb == nil {
		return 0, 0
	}
	return c.tlb.hits, c.tlb.misses
}

// translate resolves va, charging a page walk on a TLB miss when a TLB is
// attached; it returns the physical address and the cycles charged.
//
// Each core caches the last mapping it translated through: mappings are
// immutable and never unmapped, so a hit resolves with two compares and an
// add instead of the Space's mutex + binary search. This is a simulator
// fast path, not a modelled structure — the cycle accounting (free without
// a TLB, walk-on-miss with one) is unchanged.
func (c *Core) translate(va uint64) (pa uint64, walkCycles uint64) {
	mp := c.lastMap
	if mp == nil || va < mp.VirtBase || va-mp.VirtBase >= mp.Size {
		var err error
		mp, err = c.m.Space.Lookup(va)
		if err != nil {
			panic(err)
		}
		c.lastMap = mp
	}
	pa = mp.PhysBase + (va - mp.VirtBase)
	t := c.tlb
	if t == nil {
		return pa, 0
	}
	page := va / mp.PageSize
	which := t.small
	if mp.PageSize != phys.PageSize4K {
		which = t.huge
	}
	if which.Lookup(page, false) {
		t.hits++
		return pa, 0
	}
	t.misses++
	c.tsc += t.walk
	which.Insert(page, false, cachesim.AllWays)
	return pa, t.walk
}
