package slicemem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sliceaware/internal/chash"
	"sliceaware/internal/interconnect"
	"sliceaware/internal/phys"
)

func newAlloc(t *testing.T) *Allocator {
	t.Helper()
	a, err := New(phys.NewSpace(16<<30), chash.Haswell8())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocLinesAllOnRequestedSlice(t *testing.T) {
	a := newAlloc(t)
	for slice := 0; slice < 8; slice++ {
		r, err := a.AllocLines(slice, 100)
		if err != nil {
			t.Fatalf("slice %d: %v", slice, err)
		}
		if r.Len() != 100 {
			t.Fatalf("slice %d: region of %d lines", slice, r.Len())
		}
		for i := 0; i < r.Len(); i++ {
			got, err := a.SliceOf(r.Line(i))
			if err != nil {
				t.Fatal(err)
			}
			if got != slice {
				t.Fatalf("line %d of slice-%d region maps to slice %d", i, slice, got)
			}
		}
	}
}

// Property: any (slice, count) request yields exactly count lines, all
// 64-aligned, all distinct, all homed correctly.
func TestAllocProperty(t *testing.T) {
	a := newAlloc(t)
	seen := map[uint64]bool{}
	f := func(sliceRaw uint8, nRaw uint8) bool {
		slice := int(sliceRaw) % 8
		n := int(nRaw)%64 + 1
		r, err := a.AllocLines(slice, n)
		if err != nil {
			return false
		}
		if r.Len() != n {
			return false
		}
		for _, va := range r.Lines() {
			if va%64 != 0 || seen[va] {
				return false
			}
			seen[va] = true
			if s, _ := a.SliceOf(va); s != slice {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAllocBytesRoundsUp(t *testing.T) {
	a := newAlloc(t)
	r, err := a.AllocBytes(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("100 B → %d lines, want 2", r.Len())
	}
	if _, err := a.AllocBytes(3, 0); err == nil {
		t.Error("zero-byte alloc accepted")
	}
}

func TestAllocMulti(t *testing.T) {
	a := newAlloc(t)
	set := []int{0, 2, 4}
	r, err := a.AllocLinesMulti(set, 99)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, va := range r.Lines() {
		s, _ := a.SliceOf(va)
		counts[s]++
	}
	for s, n := range counts {
		if s != 0 && s != 2 && s != 4 {
			t.Errorf("line outside requested slice set: slice %d", s)
		}
		if n != 33 {
			t.Errorf("slice %d got %d lines, want 33 (round-robin)", s, n)
		}
	}
}

func TestAllocMultiValidation(t *testing.T) {
	a := newAlloc(t)
	if _, err := a.AllocLinesMulti(nil, 5); err == nil {
		t.Error("empty slice set accepted")
	}
	if _, err := a.AllocLinesMulti([]int{1, 1}, 5); err == nil {
		t.Error("duplicate slices accepted")
	}
	if _, err := a.AllocLinesMulti([]int{8}, 5); err == nil {
		t.Error("out-of-range slice accepted")
	}
	if _, err := a.AllocLines(0, 0); err == nil {
		t.Error("zero lines accepted")
	}
}

func TestAllocContiguous(t *testing.T) {
	a := newAlloc(t)
	r, err := a.AllocContiguous(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1024 {
		t.Fatalf("lines = %d", r.Len())
	}
	for i := 1; i < r.Len(); i++ {
		if r.Line(i) != r.Line(i-1)+64 {
			t.Fatal("contiguous region is not contiguous")
		}
	}
	// The whole point of Complex Addressing: a large contiguous buffer
	// spreads over every slice.
	if len(r.Slices()) != 8 {
		t.Errorf("contiguous 64 KB touches %d slices, want 8", len(r.Slices()))
	}
	if _, err := a.AllocContiguous(-1); err == nil {
		t.Error("negative size accepted")
	}
}

// TestContiguousSlicesSortedAndStable holds Region.Slices of both
// contiguous allocators to ascending order, and to the same answer on every
// run: the slice set must not depend on map iteration order.
func TestContiguousSlicesSortedAndStable(t *testing.T) {
	alloc := func() [][]int {
		a := newAlloc(t)
		var out [][]int
		for _, size := range []int{64 << 10, 256, 1000} {
			r, err := a.AllocContiguous(size)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.Slices())
		}
		r, err := a.AllocContiguousAligned(4096, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, r.Slices())
	}
	first := alloc()
	for i, sl := range first {
		if !slices.IsSorted(sl) {
			t.Errorf("region %d: Slices() = %v, not ascending", i, sl)
		}
	}
	for run := 0; run < 10; run++ {
		for i, sl := range alloc() {
			if !slices.Equal(sl, first[i]) {
				t.Fatalf("run %d, region %d: Slices() = %v, first run %v", run, i, sl, first[i])
			}
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	a := newAlloc(t)
	r, err := a.AllocLines(5, 50)
	if err != nil {
		t.Fatal(err)
	}
	lines := append([]uint64(nil), r.Lines()...)
	a.Free(r)
	if r.Len() != 0 {
		t.Error("Free left lines in the region")
	}
	if got := len(a.pools[5]); got < 50 {
		t.Errorf("pool for slice 5 has %d lines after free, want ≥50", got)
	}
	r2, err := a.AllocLines(5, 50)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	freed := map[uint64]bool{}
	for _, va := range lines {
		freed[va] = true
	}
	for _, va := range r2.Lines() {
		if freed[va] {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no freed lines were reused")
	}
	a.Free(nil) // must not panic
}

func TestScanBanksOtherSlices(t *testing.T) {
	a := newAlloc(t)
	if _, err := a.AllocLines(0, 1000); err != nil {
		t.Fatal(err)
	}
	total := 0
	for s, pool := range a.pools {
		n := len(pool)
		if s != 0 && n == 0 {
			t.Errorf("slice %d pool empty after scanning for slice 0", s)
		}
		total += n
	}
	// Scanning for 1000 slice-0 lines should bank ≈7000 lines elsewhere.
	if total < 5000 {
		t.Errorf("banked %d lines, expected thousands", total)
	}
}

func TestMultipleHugepages(t *testing.T) {
	a := newAlloc(t)
	a.pageSize = phys.PageSize2M
	// 2 MB page = 32768 lines ≈ 4096 per slice; ask for more to force a
	// second page.
	r, err := a.AllocLines(1, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 6000 {
		t.Fatalf("got %d lines", r.Len())
	}
	if len(a.pages) < 2 {
		t.Errorf("mapped %d hugepages, expected ≥2", len(a.pages))
	}
}

func TestPreferredSlices(t *testing.T) {
	ring, err := interconnect.NewRing(8, 8, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 8; core++ {
		order := PreferredSlices(ring, core)
		if order[0] != core {
			t.Errorf("core %d: preferred slice %d, want co-located %d", core, order[0], core)
		}
		if len(order) != 8 {
			t.Errorf("core %d: %d slices ordered", core, len(order))
		}
	}
}

func TestCompromiseSlice(t *testing.T) {
	ring, err := interconnect.NewRing(8, 8, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	// A single core's compromise is its own slice.
	s, err := CompromiseSlice(ring, []int{5})
	if err != nil || s != 5 {
		t.Errorf("single core: %d, %v", s, err)
	}
	// Cores 0 and 4 sit opposite on the ring: slices 2 and 6 are
	// equidistant (max penalty 6); slice 2 wins the index tie-break.
	s, err = CompromiseSlice(ring, []int{0, 4})
	if err != nil || s != 2 {
		t.Errorf("cores {0,4}: slice %d, %v (want 2)", s, err)
	}
	// The compromise never has a larger worst-case than either primary.
	for _, pair := range [][]int{{0, 1}, {1, 6}, {3, 7}, {0, 3, 5}} {
		s, err := CompromiseSlice(ring, pair)
		if err != nil {
			t.Fatal(err)
		}
		worst := func(slice int) int {
			w := 0
			for _, c := range pair {
				if p := ring.Penalty(c, slice); p > w {
					w = p
				}
			}
			return w
		}
		for _, c := range pair {
			if worst(s) > worst(c) {
				t.Errorf("cores %v: compromise S%d worst %d beats primary S%d worst %d",
					pair, s, worst(s), c, worst(c))
			}
		}
	}
	if _, err := CompromiseSlice(ring, nil); err == nil {
		t.Error("empty core set accepted")
	}
	if _, err := CompromiseSlice(ring, []int{9}); err == nil {
		t.Error("bad core accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, chash.Haswell8()); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := New(phys.NewSpace(1<<30), nil); err == nil {
		t.Error("nil hash accepted")
	}
}

func TestGeneralizedHashAllocator(t *testing.T) {
	h, err := chash.NewGeneralizedHash(18)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(phys.NewSpace(8<<30), h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		s := rng.Intn(18)
		r, err := a.AllocLines(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, va := range r.Lines() {
			if got, _ := a.SliceOf(va); got != s {
				t.Fatalf("line homed to %d, want %d", got, s)
			}
		}
	}
}
