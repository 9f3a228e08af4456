package slicemem

import "fmt"

// PageColorAllocator is the classic page-coloring allocator the paper's
// related work (§9) discusses: it selects 4 kB pages whose *set-index
// color* (physical address bits above the page offset that feed the cache
// index) matches a requested color. On pre-Sandy-Bridge parts this
// partitioned the LLC; under Complex Addressing the lines of one page
// still spread over every slice, which is exactly why the paper's
// slice-aware scheme exists. The type is provided so experiments can show
// that failure directly.
type PageColorAllocator struct {
	alloc  *Allocator
	colors int
	// freePages[color] holds 4 kB-aligned VAs of banked pages.
	freePages map[int][]uint64
}

// PageSize used by the coloring allocator.
const ColorPageSize = 4096

// NewPageColorAllocator creates an allocator over the given number of page
// colors (a power of two; classic setups use LLC sets × line / page size).
func NewPageColorAllocator(a *Allocator, colors int) (*PageColorAllocator, error) {
	if colors <= 0 || colors&(colors-1) != 0 {
		return nil, fmt.Errorf("slicemem: colors must be a positive power of two, got %d", colors)
	}
	return &PageColorAllocator{
		alloc:     a,
		colors:    colors,
		freePages: make(map[int][]uint64),
	}, nil
}

// colorOf computes a physical page's color from the bits directly above
// the page offset.
func (p *PageColorAllocator) colorOf(pa uint64) int {
	return int(pa / ColorPageSize % uint64(p.colors))
}

// AllocPages returns n 4 kB pages of the requested color.
func (p *PageColorAllocator) AllocPages(color, n int) ([]uint64, error) {
	if color < 0 || color >= p.colors {
		return nil, fmt.Errorf("slicemem: color %d out of range 0..%d", color, p.colors-1)
	}
	if n <= 0 {
		return nil, fmt.Errorf("slicemem: non-positive page count %d", n)
	}
	var out []uint64
	for len(out) < n {
		if pages := p.freePages[color]; len(pages) > 0 {
			out = append(out, pages[len(pages)-1])
			p.freePages[color] = pages[:len(pages)-1]
			continue
		}
		// Scan a fresh page, banking it if the color does not match.
		region, err := p.alloc.AllocContiguousAligned(ColorPageSize, ColorPageSize)
		if err != nil {
			return nil, err
		}
		va := region.Line(0)
		pa, err := p.alloc.SliceOfPA(va)
		if err != nil {
			return nil, err
		}
		c := p.colorOf(pa)
		if c == color {
			out = append(out, va)
		} else {
			p.freePages[c] = append(p.freePages[c], va)
		}
	}
	return out, nil
}

// SliceSpread reports how many distinct LLC slices the lines of the given
// pages map to — the §9 point: under Complex Addressing even a
// single-color page set spreads over every slice.
func (p *PageColorAllocator) SliceSpread(pages []uint64) (int, error) {
	seen := map[int]bool{}
	for _, page := range pages {
		for off := uint64(0); off < ColorPageSize; off += LineSize {
			s, err := p.alloc.SliceOf(page + off)
			if err != nil {
				return 0, err
			}
			seen[s] = true
		}
	}
	return len(seen), nil
}

// SliceOfPA translates a VA to its physical address and returns the PA's
// page-color input (exposed for the coloring allocator).
func (a *Allocator) SliceOfPA(va uint64) (uint64, error) {
	return a.space.Translate(va)
}
