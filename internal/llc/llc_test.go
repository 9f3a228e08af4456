package llc

import (
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachesim"
	"sliceaware/internal/chash"
)

func newHaswellLLC(t *testing.T) *SlicedLLC {
	t.Helper()
	l, err := New(arch.HaswellE52667v3(), chash.Haswell8())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewRejectsMismatchedHash(t *testing.T) {
	if _, err := New(arch.HaswellE52667v3(), chash.Sandy2()); err == nil {
		t.Error("2-slice hash accepted for 8-slice profile")
	}
}

func TestLookupRoutesToHashedSlice(t *testing.T) {
	l := newHaswellLLC(t)
	pa := uint64(1 << 30)
	want := l.Hash().Slice(pa)
	hit, slice := l.Lookup(pa, false)
	if hit {
		t.Error("hit in empty LLC")
	}
	if slice != want {
		t.Errorf("lookup went to slice %d, hash says %d", slice, want)
	}
	ev := l.Events(slice)
	if ev.Lookups != 1 || ev.Misses != 1 {
		t.Errorf("CBo events = %+v", ev)
	}
	// Other slices must not have seen the probe.
	for s := 0; s < l.Slices(); s++ {
		if s == slice {
			continue
		}
		if l.Events(s).Lookups != 0 {
			t.Errorf("slice %d logged a stray lookup", s)
		}
	}
}

func TestInsertThenHit(t *testing.T) {
	l := newHaswellLLC(t)
	pa := uint64(0x4240)
	_, slice := l.Insert(pa, false, cachesim.AllWays)
	hit, s2 := l.Lookup(pa, false)
	if !hit || s2 != slice {
		t.Errorf("hit=%v slice=%d after insert into %d", hit, s2, slice)
	}
	if !l.Contains(pa) {
		t.Error("Contains disagrees")
	}
	if l.Events(slice).Misses != 0 {
		t.Error("hit logged as miss")
	}
}

func TestDMAInsertConfinedToDDIOWays(t *testing.T) {
	p := arch.HaswellE52667v3()
	l, err := New(p, chash.Haswell8())
	if err != nil {
		t.Fatal(err)
	}
	// Find many addresses in the same slice and same set; DMA-insert more
	// than DDIOWays of them and confirm occupancy in that set never grows
	// beyond the DDIO budget.
	target := l.Hash().Slice(0)
	setSize := uint64(p.LLCSlice.Sets() * 64)
	var addrs []uint64
	for a := uint64(0); len(addrs) < p.DDIOWays+6; a += setSize {
		if l.Hash().Slice(a) == target {
			addrs = append(addrs, a)
		}
	}
	for _, a := range addrs {
		l.DMAInsert(a)
	}
	live := 0
	for _, a := range addrs {
		if l.Contains(a) {
			live++
		}
	}
	if live != p.DDIOWays {
		t.Errorf("%d DMA lines survive in one set, want %d (DDIO limit)", live, p.DDIOWays)
	}
	if got := l.Events(target).DDIOFills; got != uint64(len(addrs)) {
		t.Errorf("DDIOFills = %d, want %d", got, len(addrs))
	}
}

func TestSetDDIOWaysClamps(t *testing.T) {
	l := newHaswellLLC(t)
	var hookCalls []int
	l.SetReconfigHook(func(w int) { hookCalls = append(hookCalls, w) })
	// Both clamp edges report the effective count, not the request.
	if got := l.SetDDIOWays(0); got != 1 {
		t.Errorf("SetDDIOWays(0) = %d, want 1 (clamped low)", got)
	}
	if got := l.DDIOWays(); got != 1 {
		t.Errorf("clamped-low mask has %d ways, want 1", got)
	}
	if got := l.SetDDIOWays(100); got != 20 {
		t.Errorf("SetDDIOWays(100) = %d, want 20 (clamped high)", got)
	}
	if got := l.DDIOWays(); got != 20 {
		t.Errorf("clamped-high mask has %d ways, want 20", got)
	}
	if got := l.SetDDIOWays(4); got != 4 {
		t.Errorf("SetDDIOWays(4) = %d, want 4", got)
	}
	if got := l.DDIOWays(); got != 4 {
		t.Errorf("mask has %d ways, want 4", got)
	}
	if got := l.DDIOWays(); got != 4 {
		t.Errorf("DDIOWays() = %d, want 4", got)
	}
	// Every reconfiguration — including clamped ones — fires the hook with
	// the effective count (telemetry records them as timeline events).
	want := []int{1, 20, 4}
	if len(hookCalls) != len(want) {
		t.Fatalf("reconfig hook fired %d times (%v), want %d", len(hookCalls), hookCalls, len(want))
	}
	for i, w := range want {
		if hookCalls[i] != w {
			t.Errorf("hook call %d = %d, want %d", i, hookCalls[i], w)
		}
	}
}

// sameSetAddrs returns n addresses hashing to one slice and indexing one
// set, so DMA inserts beyond the DDIO budget force evictions among them.
func sameSetAddrs(l *SlicedLLC, p *arch.Profile, n int) (int, []uint64) {
	target := l.Hash().Slice(0)
	setSize := uint64(p.LLCSlice.Sets() * 64)
	var addrs []uint64
	for a := uint64(0); len(addrs) < n; a += setSize {
		if l.Hash().Slice(a) == target {
			addrs = append(addrs, a)
		}
	}
	return target, addrs
}

func TestLeakyDMACounters(t *testing.T) {
	p := arch.HaswellE52667v3()
	l, err := New(p, chash.Haswell8())
	if err != nil {
		t.Fatal(err)
	}
	target, addrs := sameSetAddrs(l, p, p.DDIOWays+1)

	// Fill the set's DDIO budget, then one more: the LRU unread line leaks.
	for _, a := range addrs {
		l.DMAInsert(a)
	}
	ev := l.Events(target)
	if ev.DDIOEvictUnread != 1 {
		t.Fatalf("DDIOEvictUnread = %d after overflowing the DDIO budget by one, want 1", ev.DDIOEvictUnread)
	}

	// First touch of the leaked line misses to DRAM; first touch of a
	// resident line is a hit.
	leaked, resident := addrs[0], addrs[1]
	if hit, _ := l.Lookup(leaked, false); hit {
		t.Error("leaked line still hits")
	}
	if hit, _ := l.Lookup(resident, false); !hit {
		t.Error("resident DMA line misses")
	}
	ev = l.Events(target)
	if ev.DDIOMissedFirstTouch != 1 {
		t.Errorf("DDIOMissedFirstTouch = %d, want 1", ev.DDIOMissedFirstTouch)
	}
	if ev.DDIOFirstTouchHits != 1 {
		t.Errorf("DDIOFirstTouchHits = %d, want 1", ev.DDIOFirstTouchHits)
	}

	// A second read of the same lines is no longer a first touch: the
	// counters must not move again.
	l.Lookup(leaked, false)
	l.Lookup(resident, false)
	ev = l.Events(target)
	if ev.DDIOMissedFirstTouch != 1 || ev.DDIOFirstTouchHits != 1 {
		t.Errorf("re-reads moved first-touch counters: %+v", ev)
	}

	l.ResetEvents()
	if ev := l.Events(target); ev != (CBoEvents{}) {
		t.Errorf("counters survive ResetEvents: %+v", ev)
	}
}

func TestDDIOOccupancy(t *testing.T) {
	p := arch.HaswellE52667v3()
	l, err := New(p, chash.Haswell8())
	if err != nil {
		t.Fatal(err)
	}
	target, addrs := sameSetAddrs(l, p, p.DDIOWays)
	for _, a := range addrs {
		l.DMAInsert(a)
	}
	occ := l.DDIOOccupancy()
	if len(occ) != l.Slices() {
		t.Fatalf("occupancy reports %d slices, want %d", len(occ), l.Slices())
	}
	for s, n := range occ {
		want := 0
		if s == target {
			want = p.DDIOWays
		}
		if n != want {
			t.Errorf("slice %d DDIO occupancy = %d, want %d", s, n, want)
		}
	}
}

func TestInvalidateAndFlushAll(t *testing.T) {
	l := newHaswellLLC(t)
	pa := uint64(0x10040)
	l.Insert(pa, true, cachesim.AllWays)
	present, dirty := l.Invalidate(pa)
	if !present || !dirty {
		t.Errorf("Invalidate = %v,%v", present, dirty)
	}
	l.Insert(pa, false, cachesim.AllWays)
	l.FlushAll()
	if l.Contains(pa) {
		t.Error("line survived FlushAll")
	}
}

func TestOccupancyAndEventsReset(t *testing.T) {
	l := newHaswellLLC(t)
	for i := 0; i < 100; i++ {
		l.Insert(uint64(i*64), false, cachesim.AllWays)
	}
	total := 0
	for _, s := range l.slices {
		total += s.MaskLen(cachesim.AllWays)
	}
	if total != 100 {
		t.Errorf("total occupancy = %d, want 100", total)
	}
	l.Lookup(0, false)
	l.ResetEvents()
	for s, ev := range l.AllEvents() {
		if ev != (CBoEvents{}) {
			t.Errorf("slice %d events not reset: %+v", s, ev)
		}
	}
}

// The polling methodology of §2.1: repeatedly accessing one address makes
// exactly one slice's lookup counter stand out.
func TestPollingSignal(t *testing.T) {
	l := newHaswellLLC(t)
	pa := uint64(0x2345000)
	l.ResetEvents()
	for i := 0; i < 1000; i++ {
		l.Lookup(pa, false)
	}
	best, bestN := -1, uint64(0)
	for s, ev := range l.AllEvents() {
		if ev.Lookups > bestN {
			best, bestN = s, ev.Lookups
		}
	}
	if best != l.Hash().Slice(pa) || bestN != 1000 {
		t.Errorf("polling found slice %d (%d lookups), hash says %d", best, bestN, l.Hash().Slice(pa))
	}
}
