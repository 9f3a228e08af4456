// Package llc assembles the sliced Last Level Cache: N independent
// set-associative slices, the Complex Addressing hash that distributes
// physical lines among them, per-slice CBo performance counters, and the
// DDIO path that lets simulated NIC DMA allocate directly into a limited
// number of LLC ways.
package llc

import (
	"fmt"
	"math/bits"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachesim"
	"sliceaware/internal/chash"
)

// CBoEvents mirrors the uncore counters each slice exposes (§2). The
// reverse-engineering methodology of §2.1 relies on Lookups. The three
// DDIO* leak counters make the "leaky DMA" pathology of IOCA measurable:
// DMA fills outpacing core consumption evict RX lines nobody has read yet,
// so the consumer's first-touch read goes all the way to DRAM.
type CBoEvents struct {
	Lookups              uint64 // every probe that reached this slice
	Misses               uint64 // probes that missed
	DDIOFills            uint64 // lines allocated by DMA
	Evictions            uint64 // valid lines displaced
	DDIOEvictUnread      uint64 // DMA-filled lines evicted before any core read them
	DDIOFirstTouchHits   uint64 // first core reads of a DMA-filled line served by the LLC
	DDIOMissedFirstTouch uint64 // first core reads that missed because the line leaked
}

// SlicedLLC is the shared last-level cache of one socket.
type SlicedLLC struct {
	hash     chash.Hash
	slicer   *chash.SliceLUT // LUT-accelerated view of hash for the per-access path
	slices   []*cachesim.Cache
	events   []CBoEvents
	ddioMask cachesim.WayMask
	lineBits uint

	// Leaky-DMA bookkeeping. dmaUnread holds DMA-filled lines no core has
	// read yet; dmaLeaked holds lines that were evicted while still unread,
	// so the eventual first-touch miss can be attributed to the leak. Both
	// sets are membership-only paged bitmaps — O(1) probe/add/remove with
	// no hashing on the DMA hot path — and both are bounded by mbuf-pool
	// line recycling.
	dmaUnread cachesim.LineSet
	dmaLeaked cachesim.LineSet
	reconfig  func(effectiveWays int)
}

// New builds the LLC for a profile with the given hash. The hash's slice
// count must match the profile.
func New(p *arch.Profile, h chash.Hash) (*SlicedLLC, error) {
	if h.Slices() != p.Slices {
		return nil, fmt.Errorf("llc: hash covers %d slices, profile has %d", h.Slices(), p.Slices)
	}
	slices, err := newSlices(p.Slices, p.LLCSlice.Sets(), p.LLCSlice.Ways)
	if err != nil {
		return nil, fmt.Errorf("llc: %w", err)
	}
	return &SlicedLLC{
		hash:     h,
		slicer:   chash.NewSliceLUT(h),
		slices:   slices,
		events:   make([]CBoEvents, p.Slices),
		ddioMask: cachesim.MaskOfWayRange(p.LLCSlice.Ways-p.DDIOWays, p.LLCSlice.Ways),
		lineBits: 6,
	}, nil
}

// newSlices builds the slice caches. They share one line index when their
// slots fit it: the hash places each line in exactly one slice, and one
// index keeps a packet's consecutive lines together instead of spreading
// them over a page per slice. A larger LLC gets private slices, which
// behave the same.
func newSlices(n, sets, ways int) ([]*cachesim.Cache, error) {
	if n*ways <= cachesim.MaxGroupSlots {
		return cachesim.NewGroup("LLC-slice", n, sets, ways)
	}
	slices := make([]*cachesim.Cache, n)
	for i := range slices {
		c, err := cachesim.New(fmt.Sprintf("LLC-slice-%d", i), sets, ways)
		if err != nil {
			return nil, err
		}
		slices[i] = c
	}
	return slices, nil
}

// Slices returns the number of slices.
func (l *SlicedLLC) Slices() int { return len(l.slices) }

// Hash exposes the Complex Addressing function (the simulator's ground
// truth; reverse-engineering code must not touch it).
func (l *SlicedLLC) Hash() chash.Hash { return l.hash }

// SliceOf returns the slice a physical address maps to. It answers from
// the precomputed LUT, which agrees with Hash() on every address.
func (l *SlicedLLC) SliceOf(pa uint64) int { return l.slicer.Slice(pa) }

// SliceOfBatch resolves the slice of every address in pas into out[i] —
// the batched slice-hash pass, one LUT sweep with the hash-family dispatch
// hoisted out of the loop. out must be at least as long as pas.
func (l *SlicedLLC) SliceOfBatch(pas []uint64, out []int) { l.slicer.SliceOfBatch(pas, out) }

// line converts a physical address to a line number.
func (l *SlicedLLC) line(pa uint64) uint64 { return pa >> l.lineBits }

// Lookup probes the owning slice for pa. It returns whether it hit and
// which slice served the probe. CBo lookup counters advance either way —
// that observability is what makes polling-based reverse engineering work.
// A core's first read of a DMA-filled line also advances the slice's
// first-touch counters: a hit if DDIO kept the line, a miss if it leaked.
func (l *SlicedLLC) Lookup(pa uint64, write bool) (hit bool, slice int) {
	slice = l.SliceOf(pa)
	l.events[slice].Lookups++
	line := l.line(pa)
	hit = l.slices[slice].Lookup(line, write)
	if hit {
		if l.dmaUnread.Remove(line) {
			l.events[slice].DDIOFirstTouchHits++
		}
	} else {
		l.events[slice].Misses++
		if l.dmaLeaked.Remove(line) {
			l.events[slice].DDIOMissedFirstTouch++
		}
	}
	return hit, slice
}

// LookupCore is Lookup; the probing core does not change the result or
// the counters.
func (l *SlicedLLC) LookupCore(_ int, pa uint64, write bool) (hit bool, slice int) {
	return l.Lookup(pa, write)
}

// Contains probes without disturbing LRU state or counters.
func (l *SlicedLLC) Contains(pa uint64) bool {
	return l.slices[l.SliceOf(pa)].Contains(l.line(pa))
}

// noteEviction advances the eviction counters for a victim displaced from
// slice, detecting the leaky-DMA case: a DMA-filled line thrown out before
// any core read it moves from the unread set to the leaked set.
func (l *SlicedLLC) noteEviction(slice int, v cachesim.Victim) {
	if !v.Evicted {
		return
	}
	l.events[slice].Evictions++
	if l.dmaUnread.Remove(v.Line) {
		l.dmaLeaked.Add(v.Line)
		l.events[slice].DDIOEvictUnread++
	}
}

// Insert fills pa into its slice under the way mask, returning the victim.
func (l *SlicedLLC) Insert(pa uint64, dirty bool, mask cachesim.WayMask) (cachesim.Victim, int) {
	slice := l.SliceOf(pa)
	line := l.line(pa)
	v := l.slices[slice].Insert(line, dirty, mask)
	l.noteEviction(slice, v)
	// A core-side fill of this line means the core has its data some other
	// way; stop tracking it without counting a leak either way.
	l.dmaUnread.Remove(line)
	l.dmaLeaked.Remove(line)
	return v, slice
}

// DMAInsert fills pa through the DDIO path: allocation is confined to the
// DDIO ways (2 of 20 by default — the 10 % limit of §5.2/§8). The inserted
// line is dirty from the cache's point of view (DMA wrote fresh data).
func (l *SlicedLLC) DMAInsert(pa uint64) (cachesim.Victim, int) {
	return l.DMAInsertAt(l.SliceOf(pa), pa)
}

// DMAInsertAt is DMAInsert with the owning slice already resolved — the
// per-line step of the batched DMA pass, which hashes a whole burst of
// line addresses with SliceOfBatch and then fills each line here. slice
// must equal SliceOf(pa); the semantics and counters are exactly those of
// DMAInsert.
func (l *SlicedLLC) DMAInsertAt(slice int, pa uint64) (cachesim.Victim, int) {
	line := l.line(pa)
	v := l.slices[slice].Insert(line, true, l.ddioMask)
	l.events[slice].DDIOFills++
	l.noteEviction(slice, v)
	// Fresh DMA data, not yet read by any core. A re-DMA of a recycled mbuf
	// line supersedes any stale pending first-touch miss.
	l.dmaUnread.Add(line)
	l.dmaLeaked.Remove(line)
	return v, slice
}

// DDIOWays returns the current number of DDIO ways.
func (l *SlicedLLC) DDIOWays() int { return bits.OnesCount64(uint64(l.ddioMask)) }

// SetDDIOWays reconfigures the number of ways DMA may allocate into; used
// by the DDIO-budget ablation. Out-of-range
// requests clamp to [1, total ways]; the effective way count is returned
// and reported to the reconfiguration hook, if one is installed.
func (l *SlicedLLC) SetDDIOWays(ways int) int {
	total := l.slices[0].Ways()
	if ways < 1 {
		ways = 1
	}
	if ways > total {
		ways = total
	}
	l.ddioMask = cachesim.MaskOfWayRange(total-ways, total)
	if l.reconfig != nil {
		l.reconfig(ways)
	}
	return ways
}

// SetReconfigHook installs fn, invoked with the effective way count after
// every SetDDIOWays. Telemetry uses it to stamp a timeline event on each
// DDIO reconfiguration; the hook must not call back into the LLC.
func (l *SlicedLLC) SetReconfigHook(fn func(effectiveWays int)) { l.reconfig = fn }

// DDIOOccupancy returns, per slice, the number of valid lines resident in
// the socket-wide DDIO ways — how full the I/O partition is right now.
func (l *SlicedLLC) DDIOOccupancy() []int {
	out := make([]int, len(l.slices))
	for i, s := range l.slices {
		out[i] = s.MaskLen(l.ddioMask)
	}
	return out
}

// Invalidate removes pa from its slice (clflush reaching the LLC level).
func (l *SlicedLLC) Invalidate(pa uint64) (present, dirty bool) {
	line := l.line(pa)
	l.dmaUnread.Remove(line)
	l.dmaLeaked.Remove(line)
	return l.slices[l.SliceOf(pa)].Invalidate(line)
}

// FlushAll empties every slice, returning the number of dirty lines
// written back.
func (l *SlicedLLC) FlushAll() (writebacks int) {
	for _, s := range l.slices {
		writebacks += s.FlushAll()
	}
	l.dmaUnread.Clear()
	l.dmaLeaked.Clear()
	return writebacks
}

// Events returns a copy of the CBo counters for one slice.
func (l *SlicedLLC) Events(slice int) CBoEvents { return l.events[slice] }

// AllEvents returns a copy of every slice's counters.
func (l *SlicedLLC) AllEvents() []CBoEvents {
	out := make([]CBoEvents, len(l.events))
	copy(out, l.events)
	return out
}

// ResetEvents zeroes all CBo counters (writing the CBo control MSRs).
func (l *SlicedLLC) ResetEvents() {
	for i := range l.events {
		l.events[i] = CBoEvents{}
	}
}

// SliceCache exposes the underlying cache of one slice for inspection.
func (l *SlicedLLC) SliceCache(i int) *cachesim.Cache { return l.slices[i] }

// SetPolicy switches every slice's replacement policy (LRU/BIP/LIP —
// modern parts use adaptive insertion, §2).
func (l *SlicedLLC) SetPolicy(p cachesim.Policy) error {
	for _, s := range l.slices {
		if err := s.SetPolicy(p); err != nil {
			return err
		}
	}
	return nil
}
