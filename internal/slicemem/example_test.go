package slicemem_test

import (
	"fmt"
	"log"

	"sliceaware/internal/chash"
	"sliceaware/internal/phys"
	"sliceaware/internal/slicemem"
)

// Example shows the core loop of slice-aware memory management: build an
// allocator over hugepage-backed memory with the part's Complex Addressing
// hash, then request lines homed to a specific LLC slice.
func Example() {
	space := phys.NewSpace(8 << 30)
	alloc, err := slicemem.New(space, chash.Haswell8())
	if err != nil {
		log.Fatal(err)
	}

	region, err := alloc.AllocBytes(3, 4096) // 4 kB homed to slice 3
	if err != nil {
		log.Fatal(err)
	}
	allOn3 := true
	for _, va := range region.Lines() {
		s, err := alloc.SliceOf(va)
		if err != nil || s != 3 {
			allOn3 = false
		}
	}
	fmt.Printf("%d lines, all on slice 3: %v\n", region.Len(), allOn3)

	// A normal contiguous allocation spreads over every slice instead.
	spread, err := alloc.AllocContiguous(4096)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contiguous 4 kB touches %d slices\n", len(spread.Slices()))
	// Output:
	// 64 lines, all on slice 3: true
	// contiguous 4 kB touches 8 slices
}
