// Package phys simulates the physical memory plumbing the paper relies on:
// hugepage-backed mmap allocations, the /proc/self/pagemap virtual→physical
// translation, and simple carving of sub-allocations out of a hugepage.
//
// Slice-aware memory management needs only two properties of real memory:
// (1) a stable virtual→physical translation so the Complex Addressing hash
// can be evaluated for a user pointer, and (2) physical contiguity inside a
// hugepage so consecutive virtual lines are consecutive physical lines.
// The simulated Space preserves both.
package phys

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Page sizes supported by the simulated allocator.
const (
	PageSize4K = 4 << 10
	PageSize2M = 2 << 20
	PageSize1G = 1 << 30
)

// ErrOutOfMemory is returned when the physical space is exhausted.
var ErrOutOfMemory = errors.New("phys: out of physical memory")

// Space is a simulated physical address space with an mmap-like interface.
// The zero value is not usable; construct with NewSpace.
type Space struct {
	mu sync.Mutex

	size uint64 // total physical bytes
	next uint64 // bump pointer for physical allocation (always page aligned)

	// virtNext is the next unassigned virtual address. Virtual and physical
	// spaces are distinct: translations go through the pagemap, exactly as
	// user space must on real hardware.
	virtNext uint64

	mappings []*Mapping // sorted by virtual base
}

// Mapping is one mmap'd region backed by pages of a single size.
type Mapping struct {
	VirtBase uint64
	PhysBase uint64
	Size     uint64
	PageSize uint64
}

// NewSpace creates a physical space of the given size in bytes.
func NewSpace(size uint64) *Space {
	return &Space{
		size: size,
		// Leave the low 16 MB "reserved" so physical addresses exercise
		// more hash bits, as on a real machine with firmware carve-outs.
		next:     16 << 20,
		virtNext: 0x7f00_0000_0000, // typical mmap area on Linux x86-64
	}
}

// Map allocates size bytes backed by pages of pageSize and returns the
// mapping. Physical backing is contiguous per page; for hugepages this is
// what gives slice-aware allocation its large contiguous window.
func (s *Space) Map(size, pageSize uint64) (*Mapping, error) {
	if size == 0 {
		return nil, fmt.Errorf("phys: zero-length mapping")
	}
	switch pageSize {
	case PageSize4K, PageSize2M, PageSize1G:
	default:
		return nil, fmt.Errorf("phys: unsupported page size %d", pageSize)
	}
	// Round the region up to whole pages.
	size = (size + pageSize - 1) / pageSize * pageSize

	s.mu.Lock()
	defer s.mu.Unlock()

	phys := (s.next + pageSize - 1) / pageSize * pageSize
	if phys+size > s.size {
		return nil, ErrOutOfMemory
	}
	s.next = phys + size

	virt := (s.virtNext + pageSize - 1) / pageSize * pageSize
	s.virtNext = virt + size + pageSize // guard gap between mappings

	m := &Mapping{VirtBase: virt, PhysBase: phys, Size: size, PageSize: pageSize}
	i := sort.Search(len(s.mappings), func(i int) bool { return s.mappings[i].VirtBase > virt })
	s.mappings = append(s.mappings, nil)
	copy(s.mappings[i+1:], s.mappings[i:])
	s.mappings[i] = m
	return m, nil
}

// MapHugepage1G allocates a single 1 GB hugepage, the configuration used in
// §2.2 and §3 of the paper.
func (s *Space) MapHugepage1G() (*Mapping, error) { return s.Map(PageSize1G, PageSize1G) }

// Translate converts a virtual address to its physical address, the
// simulated equivalent of reading /proc/self/pagemap.
func (s *Space) Translate(va uint64) (uint64, error) {
	pa, _, err := s.TranslateFull(va)
	return pa, err
}

// TranslateFull converts a virtual address and also reports the page size
// of the backing mapping (what a TLB needs to know).
func (s *Space) TranslateFull(va uint64) (pa, pageSize uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.mappings), func(i int) bool { return s.mappings[i].VirtBase > va })
	if i == 0 {
		return 0, 0, fmt.Errorf("phys: translate %#x: unmapped", va)
	}
	m := s.mappings[i-1]
	if va >= m.VirtBase+m.Size {
		return 0, 0, fmt.Errorf("phys: translate %#x: unmapped", va)
	}
	return m.PhysBase + (va - m.VirtBase), m.PageSize, nil
}

// Lookup returns the mapping containing va. Mappings are immutable and
// never unmapped, so callers may cache the result and translate within it
// arithmetically (PhysBase + offset) without re-consulting the pagemap —
// the simulated analogue of a core's cached translation.
func (s *Space) Lookup(va uint64) (*Mapping, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.mappings), func(i int) bool { return s.mappings[i].VirtBase > va })
	if i == 0 {
		return nil, fmt.Errorf("phys: translate %#x: unmapped", va)
	}
	m := s.mappings[i-1]
	if va >= m.VirtBase+m.Size {
		return nil, fmt.Errorf("phys: translate %#x: unmapped", va)
	}
	return m, nil
}

// Contains reports whether va falls inside the mapping.
func (m *Mapping) Contains(va uint64) bool {
	return va >= m.VirtBase && va < m.VirtBase+m.Size
}

// Phys translates a virtual address inside this mapping without consulting
// the pagemap; it panics if va is outside the mapping.
func (m *Mapping) Phys(va uint64) uint64 {
	if !m.Contains(va) {
		panic(fmt.Sprintf("phys: address %#x outside mapping [%#x,%#x)", va, m.VirtBase, m.VirtBase+m.Size))
	}
	return m.PhysBase + (va - m.VirtBase)
}
