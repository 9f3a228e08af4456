package cachesim

import (
	"math/bits"
	"sort"
)

// A LineSet page covers 2^15 lines with 4 KiB of bitmap, so sparse line
// populations (a few mbuf pools plus NF tables scattered over a simulated
// physical space) cost a handful of pages rather than a bitmap over the
// whole address space.
const (
	lineSetPageShift = 15
	lineSetPageWords = 1 << (lineSetPageShift - 6)
)

type lineSetPage [lineSetPageWords]uint64

// LineSet is a paged bitmap over cache-line numbers. It answers membership
// in O(1) with no hashing on the dense range and no per-operation
// allocation once a page exists, which is what lets the batch pipeline
// replace map-based membership (hash + probe + write barrier per line) on
// the DMA hot path. The zero value is an empty set. Not safe for
// concurrent use.
type LineSet struct {
	pages pages[lineSetPage]
	count int
}

// Has reports whether line is in the set.
func (s *LineSet) Has(line uint64) bool {
	pg := s.pages.get(line >> lineSetPageShift)
	if pg == nil {
		return false
	}
	return pg[(line>>6)&(lineSetPageWords-1)]>>(line&63)&1 != 0
}

// Add inserts line, reporting whether it was newly added.
func (s *LineSet) Add(line uint64) bool {
	pg := s.pages.ensure(line >> lineSetPageShift)
	w, b := (line>>6)&(lineSetPageWords-1), uint(line&63)
	if pg[w]>>b&1 != 0 {
		return false
	}
	pg[w] |= 1 << b
	s.count++
	return true
}

// Remove deletes line, reporting whether it was present.
func (s *LineSet) Remove(line uint64) bool {
	pg := s.pages.get(line >> lineSetPageShift)
	if pg == nil {
		return false
	}
	w, b := (line>>6)&(lineSetPageWords-1), uint(line&63)
	if pg[w]>>b&1 == 0 {
		return false
	}
	pg[w] &^= 1 << b
	s.count--
	return true
}

// Clear empties the set, keeping the allocated pages for reuse.
func (s *LineSet) Clear() {
	if s.count == 0 {
		return
	}
	for _, pg := range s.pages.dense {
		if pg != nil {
			*pg = lineSetPage{}
		}
	}
	for _, pg := range s.pages.far {
		*pg = lineSetPage{}
	}
	s.count = 0
}

// Lines appends the set's members in ascending order to out.
func (s *LineSet) Lines(out []uint64) []uint64 {
	appendPage := func(p uint64, pg *lineSetPage) {
		base := p << lineSetPageShift
		for w, word := range pg {
			for ; word != 0; word &= word - 1 {
				out = append(out, base+uint64(w<<6)+uint64(bits.TrailingZeros64(word)))
			}
		}
	}
	for p, pg := range s.pages.dense {
		if pg != nil {
			appendPage(uint64(p), pg)
		}
	}
	farIdx := make([]uint64, 0, len(s.pages.far))
	for p := range s.pages.far {
		farIdx = append(farIdx, p)
	}
	sort.Slice(farIdx, func(i, j int) bool { return farIdx[i] < farIdx[j] })
	for _, p := range farIdx {
		appendPage(p, s.pages.far[p])
	}
	return out
}
