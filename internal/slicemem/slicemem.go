// Package slicemem implements the paper's core contribution: slice-aware
// memory management (§3). An Allocator hands out memory whose physical
// lines all map to a chosen LLC slice (or set of slices), so a core that
// places its hot data through it will find that data in the cheapest part
// of the LLC.
//
// Mechanically this mirrors the paper's userspace recipe: back allocations
// with 1 GB hugepages (physically contiguous, so virtual offsets translate
// directly), learn each line's slice from the Complex Addressing hash, and
// build per-slice pools of 64 B lines. Because the hash changes slice
// almost every line, a slice-aware "buffer" is inherently non-contiguous —
// the Region type captures that.
package slicemem

import (
	"fmt"

	"sliceaware/internal/chash"
	"sliceaware/internal/interconnect"
	"sliceaware/internal/phys"
)

// LineSize is the allocation granule: one cache line.
const LineSize = 64

// Allocator builds slice-homed allocations from hugepage-backed memory.
type Allocator struct {
	space *phys.Space
	hash  chash.Hash

	pageSize uint64 // 1 GB; package tests shrink it to reach a second page
	pages    []*phys.Mapping
	cursor   uint64 // next unscanned VA within pages[len(pages)-1]

	// pools[s] holds line VAs known to map to slice s, discovered while
	// scanning for other slices or released by Free.
	pools [][]uint64
}

// New creates an allocator over the space using the given hash (typically
// recovered by reveng or taken from chash for a known part).
func New(space *phys.Space, h chash.Hash) (*Allocator, error) {
	if space == nil || h == nil {
		return nil, fmt.Errorf("slicemem: nil space or hash")
	}
	return &Allocator{
		space:    space,
		hash:     h,
		pageSize: phys.PageSize1G,
		pools:    make([][]uint64, h.Slices()),
	}, nil
}

// Slices returns the number of LLC slices the allocator distributes over.
func (a *Allocator) Slices() int { return a.hash.Slices() }

// Region is a slice-homed allocation: a set of 64 B lines, all mapping to
// the same LLC slice (or the same slice set for multi-slice allocations).
type Region struct {
	lines  []uint64 // virtual addresses, each 64-aligned
	slices []int    // the slice(s) this region is homed to
}

// Len returns the number of lines.
func (r *Region) Len() int { return len(r.lines) }

// Line returns the virtual address of line i.
func (r *Region) Line(i int) uint64 { return r.lines[i] }

// Lines returns all line addresses (caller must not modify).
func (r *Region) Lines() []uint64 { return r.lines }

// Slices returns the slice set the region is homed to.
func (r *Region) Slices() []int { return r.slices }

// AllocLines returns n lines all homed to the given slice.
func (a *Allocator) AllocLines(slice, n int) (*Region, error) {
	return a.AllocLinesMulti([]int{slice}, n)
}

// AllocBytes returns a region with at least size bytes homed to slice.
func (a *Allocator) AllocBytes(slice int, size int) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("slicemem: non-positive size %d", size)
	}
	return a.AllocLines(slice, (size+LineSize-1)/LineSize)
}

// AllocLinesMulti returns n lines homed to any of the given slices,
// round-robining across them — the multi-slice policy §8 recommends to
// dilute per-slice eviction pressure.
func (a *Allocator) AllocLinesMulti(slices []int, n int) (*Region, error) {
	if n <= 0 {
		return nil, fmt.Errorf("slicemem: non-positive line count %d", n)
	}
	if len(slices) == 0 {
		return nil, fmt.Errorf("slicemem: empty slice set")
	}
	want := make(map[int]bool, len(slices))
	for _, s := range slices {
		if s < 0 || s >= a.Slices() {
			return nil, fmt.Errorf("slicemem: slice %d out of range 0..%d", s, a.Slices()-1)
		}
		if want[s] {
			return nil, fmt.Errorf("slicemem: duplicate slice %d in set", s)
		}
		want[s] = true
	}

	r := &Region{slices: append([]int(nil), slices...)}
	// Round-robin across the requested slices for balance.
	for i := 0; len(r.lines) < n; i++ {
		s := slices[i%len(slices)]
		va, err := a.takeLine(s)
		if err != nil {
			a.Free(r)
			return nil, err
		}
		r.lines = append(r.lines, va)
	}
	return r, nil
}

// AllocContiguous returns a normal (slice-oblivious) contiguous allocation
// of size bytes — the baseline the paper compares against. Its lines land
// on whatever slices the hash dictates.
func (a *Allocator) AllocContiguous(size int) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("slicemem: non-positive size %d", size)
	}
	n := (size + LineSize - 1) / LineSize
	// Carve an untouched contiguous window: lines from the cursor onward.
	if err := a.ensureScanWindow(uint64(n) * LineSize); err != nil {
		return nil, err
	}
	return a.takeContiguous(n), nil
}

// AllocContiguousAligned is AllocContiguous with a start-address alignment
// (a power of two ≥ 64). Lines skipped for alignment are banked in the
// per-slice pools, not wasted.
func (a *Allocator) AllocContiguousAligned(size int, align uint64) (*Region, error) {
	if align < LineSize || align&(align-1) != 0 {
		return nil, fmt.Errorf("slicemem: alignment %d must be a power of two ≥ %d", align, LineSize)
	}
	if size <= 0 {
		return nil, fmt.Errorf("slicemem: non-positive size %d", size)
	}
	if err := a.ensureScanWindow(uint64(size) + align); err != nil {
		return nil, err
	}
	page := a.pages[len(a.pages)-1]
	// Bank the filler lines up to the alignment boundary.
	for a.cursor%align != 0 {
		va := a.cursor
		a.cursor += LineSize
		s := a.hash.Slice(page.Phys(va))
		a.pools[s] = append(a.pools[s], va)
	}
	return a.takeContiguous((size + LineSize - 1) / LineSize), nil
}

// takeContiguous carves the n lines from the cursor onward of the newest
// page into a region. Its slices are the ones those lines land on, in
// ascending order.
func (a *Allocator) takeContiguous(n int) *Region {
	page := a.pages[len(a.pages)-1]
	start := a.cursor
	a.cursor += uint64(n) * LineSize
	r := &Region{lines: make([]uint64, n)}
	touched := make([]bool, a.hash.Slices())
	for i := range r.lines {
		va := start + uint64(i)*LineSize
		r.lines[i] = va
		touched[a.hash.Slice(page.Phys(va))] = true
	}
	for s, ok := range touched {
		if ok {
			r.slices = append(r.slices, s)
		}
	}
	return r
}

// Free returns a region's lines to the allocator's pools.
func (a *Allocator) Free(r *Region) {
	if r == nil {
		return
	}
	for _, va := range r.lines {
		s := a.sliceOfVA(va)
		a.pools[s] = append(a.pools[s], va)
	}
	r.lines = nil
}

// SliceOf reports the LLC slice of the line containing va. The address
// must belong to memory this allocator mapped.
func (a *Allocator) SliceOf(va uint64) (int, error) {
	pa, err := a.space.Translate(va)
	if err != nil {
		return -1, err
	}
	return a.hash.Slice(pa), nil
}

func (a *Allocator) sliceOfVA(va uint64) int {
	s, err := a.SliceOf(va)
	if err != nil {
		panic(fmt.Sprintf("slicemem: freed line %#x not in allocator memory: %v", va, err))
	}
	return s
}

// takeLine produces one line homed to slice s, scanning forward through
// hugepage memory and banking lines of other slices for later requests.
func (a *Allocator) takeLine(s int) (uint64, error) {
	if n := len(a.pools[s]); n > 0 {
		va := a.pools[s][n-1]
		a.pools[s] = a.pools[s][:n-1]
		return va, nil
	}
	for {
		if err := a.ensureScanWindow(LineSize); err != nil {
			return 0, err
		}
		page := a.pages[len(a.pages)-1]
		va := a.cursor
		a.cursor += LineSize
		got := a.hash.Slice(page.Phys(va))
		if got == s {
			return va, nil
		}
		a.pools[got] = append(a.pools[got], va)
	}
}

// ensureScanWindow guarantees at least size bytes remain unscanned in the
// newest hugepage, mapping a fresh one if needed.
func (a *Allocator) ensureScanWindow(size uint64) error {
	if len(a.pages) > 0 {
		page := a.pages[len(a.pages)-1]
		if a.cursor+size <= page.VirtBase+page.Size {
			return nil
		}
	}
	sz := a.pageSize
	if size > sz {
		sz = (size + a.pageSize - 1) / a.pageSize * a.pageSize
	}
	page, err := a.space.Map(sz, a.pageSize)
	if err != nil {
		return fmt.Errorf("slicemem: mapping hugepage: %w", err)
	}
	a.pages = append(a.pages, page)
	a.cursor = page.VirtBase
	return nil
}

// PreferredSlices returns the cheapest slices for a core under the given
// topology, primary first — the policy input for "closest slice" placement.
func PreferredSlices(t interconnect.Topology, core int) []int {
	prefs := interconnect.Preferences(t)
	return prefs[core].Ordered
}

// CompromiseSlice returns the slice minimizing the worst-case penalty over
// a set of cores — the placement §8 prescribes for data shared by
// multiple threads ("find a compromise placement ... beneficial for all
// cores"). Ties break toward the lower total penalty, then the lower
// slice index.
func CompromiseSlice(t interconnect.Topology, cores []int) (int, error) {
	if len(cores) == 0 {
		return -1, fmt.Errorf("slicemem: compromise placement needs at least one core")
	}
	for _, c := range cores {
		if c < 0 || c >= t.Cores() {
			return -1, fmt.Errorf("slicemem: core %d out of range", c)
		}
	}
	best, bestMax, bestSum := -1, 0, 0
	for s := 0; s < t.Slices(); s++ {
		max, sum := 0, 0
		for _, c := range cores {
			p := t.Penalty(c, s)
			sum += p
			if p > max {
				max = p
			}
		}
		if best == -1 || max < bestMax || (max == bestMax && sum < bestSum) {
			best, bestMax, bestSum = s, max, sum
		}
	}
	return best, nil
}
