package uncore

import (
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachesim"
	"sliceaware/internal/chash"
	"sliceaware/internal/llc"
)

func newLLC(t *testing.T) *llc.SlicedLLC {
	t.Helper()
	l, err := llc.New(arch.HaswellE52667v3(), chash.Haswell8())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestMonitorDeltas(t *testing.T) {
	l := newLLC(t)
	m := NewMonitor(l)

	// Pre-session traffic must not leak into deltas.
	for i := 0; i < 10; i++ {
		l.Lookup(0x1000, false)
	}
	m.Start(EventLookups)
	pa := uint64(0x2000)
	for i := 0; i < 7; i++ {
		l.Lookup(pa, false)
	}
	d, err := m.Read()
	if err != nil {
		t.Fatal(err)
	}
	target := l.Hash().Slice(pa)
	for s, n := range d {
		want := uint64(0)
		if s == target {
			want = 7
		}
		if s == l.Hash().Slice(0x1000) && s == target {
			want = 7 // same slice coincidence: only session lookups count
		}
		if n != want {
			t.Errorf("slice %d delta = %d, want %d", s, n, want)
		}
	}
	m.Stop()
	if _, err := m.Read(); err == nil {
		t.Error("Read after Stop succeeded")
	}
}

func TestMonitorEvents(t *testing.T) {
	l := newLLC(t)
	m := NewMonitor(l)
	pa := uint64(0x40)

	m.Start(EventMisses)
	l.Lookup(pa, false) // miss
	l.Insert(pa, false, cachesim.AllWays)
	l.Lookup(pa, false) // hit
	d, _ := m.Read()
	if d[l.Hash().Slice(pa)] != 1 {
		t.Errorf("miss delta = %d, want 1", d[l.Hash().Slice(pa)])
	}

	m.Start(EventDDIOFills)
	l.DMAInsert(pa + 64)
	d, _ = m.Read()
	if d[l.Hash().Slice(pa+64)] != 1 {
		t.Errorf("ddio delta = %d, want 1", d[l.Hash().Slice(pa+64)])
	}
}

func TestReadBeforeStart(t *testing.T) {
	m := NewMonitor(newLLC(t))
	if _, err := m.Read(); err == nil {
		t.Error("Read before Start succeeded")
	}
}

func TestEventStrings(t *testing.T) {
	for _, e := range []Event{EventLookups, EventMisses, EventDDIOFills, EventEvictions} {
		if e.String() == "" {
			t.Errorf("event %d has empty name", int(e))
		}
	}
	if Event(99).String() == "" {
		t.Error("unknown event should still stringify")
	}
}

func TestArgMax(t *testing.T) {
	if idx, ok := ArgMax([]uint64{1, 100, 2}, 2.0); idx != 1 || !ok {
		t.Errorf("ArgMax = %d,%v", idx, ok)
	}
	if _, ok := ArgMax([]uint64{50, 100, 90}, 2.0); ok {
		t.Error("non-dominant winner accepted")
	}
	if idx, ok := ArgMax(nil, 2.0); idx != -1 || ok {
		t.Error("empty input mishandled")
	}
	if _, ok := ArgMax([]uint64{0, 0}, 2.0); ok {
		t.Error("all-zero input produced a confident winner")
	}
	// Dominance over the runner-up, not the sum.
	if idx, ok := ArgMax([]uint64{10, 0, 4}, 2.0); idx != 0 || !ok {
		t.Errorf("10-vs-4 at 2.0 dominance = %d,%v, want 0,true", idx, ok)
	}
}

// TestArgMaxEdgeCases pins the intended contract at its corners — most
// importantly that an exact tie at the top is never a dominant winner
// (the comparison is against second+1), since the polling methodology
// must not confidently pick between two equally-hot slices.
func TestArgMaxEdgeCases(t *testing.T) {
	tests := []struct {
		name      string
		deltas    []uint64
		dominance float64
		wantIdx   int
		wantOK    bool
	}{
		{"exact tie at top, dominance 2", []uint64{7, 7, 1}, 2.0, 0, false},
		{"exact tie at top, dominance 1", []uint64{7, 7, 1}, 1.0, 0, false},
		{"three-way tie", []uint64{5, 5, 5}, 2.0, 0, false},
		{"tie not at front", []uint64{1, 9, 9}, 2.0, 1, false},
		{"single slice, non-zero", []uint64{3}, 2.0, 0, true},
		{"single slice, zero", []uint64{0}, 2.0, 0, false},
		{"all zero", []uint64{0, 0, 0, 0}, 2.0, 0, false},
		{"empty", nil, 2.0, -1, false},
		{"clear winner", []uint64{100, 3, 2}, 2.0, 0, true},
		{"winner short of factor", []uint64{100, 60}, 2.0, 0, false},
		{"dominance exactly met", []uint64{20, 9}, 2.0, 0, true},
		// A dominance factor ≤ 1 waives the tie guarantee: equal counts
		// pass the second+1 test once the factor shrinks the bar enough.
		{"tie with dominance 0.5", []uint64{8, 8}, 0.5, 0, true},
		{"dominance 1, winner by one", []uint64{10, 9}, 1.0, 0, true},
	}
	for _, tc := range tests {
		idx, ok := ArgMax(tc.deltas, tc.dominance)
		if idx != tc.wantIdx || ok != tc.wantOK {
			t.Errorf("%s: ArgMax(%v, %v) = (%d, %v), want (%d, %v)",
				tc.name, tc.deltas, tc.dominance, idx, ok, tc.wantIdx, tc.wantOK)
		}
	}
}
