package slicemem

import (
	"testing"

	"sliceaware/internal/chash"
	"sliceaware/internal/phys"
)

func TestAllocContiguousAligned(t *testing.T) {
	a := newAlloc(t)
	// Misalign the cursor first.
	if _, err := a.AllocContiguous(192); err != nil {
		t.Fatal(err)
	}
	r, err := a.AllocContiguousAligned(8192, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if r.Line(0)%4096 != 0 {
		t.Errorf("start %#x not page aligned", r.Line(0))
	}
	if r.Len() != 128 {
		t.Errorf("lines = %d, want 128", r.Len())
	}
	if _, err := a.AllocContiguousAligned(64, 100); err == nil {
		t.Error("non-power-of-two alignment accepted")
	}
	if _, err := a.AllocContiguousAligned(0, 4096); err == nil {
		t.Error("zero size accepted")
	}
}

func TestPageColoringFailsUnderComplexAddressing(t *testing.T) {
	a := newAlloc(t)
	pc, err := NewPageColorAllocator(a, 32)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := pc.AllocPages(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 8 {
		t.Fatalf("%d pages", len(pages))
	}
	for _, va := range pages {
		if va%ColorPageSize != 0 {
			t.Fatalf("page %#x not aligned", va)
		}
		pa, err := a.SliceOfPA(va)
		if err != nil {
			t.Fatal(err)
		}
		if int(pa/ColorPageSize%32) != 5 {
			t.Fatalf("page %#x has wrong color", va)
		}
	}
	// The §9 point: same-color pages still spread their lines over every
	// LLC slice, so page coloring cannot partition a hashed LLC.
	spread, err := pc.SliceSpread(pages)
	if err != nil {
		t.Fatal(err)
	}
	if spread != 8 {
		t.Errorf("single-color pages cover %d slices; Complex Addressing should spread them over all 8", spread)
	}
	if len(pc.freePages) == 0 {
		t.Error("no banked colors after scanning")
	}
}

func TestPageColorValidation(t *testing.T) {
	a := newAlloc(t)
	if _, err := NewPageColorAllocator(a, 0); err == nil {
		t.Error("zero colors accepted")
	}
	if _, err := NewPageColorAllocator(a, 3); err == nil {
		t.Error("non-power-of-two colors accepted")
	}
	pc, _ := NewPageColorAllocator(a, 4)
	if _, err := pc.AllocPages(9, 1); err == nil {
		t.Error("bad color accepted")
	}
	if _, err := pc.AllocPages(0, 0); err == nil {
		t.Error("zero pages accepted")
	}
}

func TestPageColorReusesBankedPages(t *testing.T) {
	a, err := New(phys.NewSpace(16<<30), chash.Haswell8())
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPageColorAllocator(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Allocating color 0 banks colors 1..7; a follow-up allocation of
	// color 3 must not scan fresh memory (no hugepage mapped).
	if _, err := pc.AllocPages(0, 4); err != nil {
		t.Fatal(err)
	}
	mapped := len(a.pages)
	if _, err := pc.AllocPages(3, 2); err != nil {
		t.Fatal(err)
	}
	if len(a.pages) != mapped {
		t.Error("banked pages were not reused")
	}
}
