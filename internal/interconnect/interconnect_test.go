package interconnect

import (
	"testing"

	"sliceaware/internal/arch"
)

func TestRingBimodalFromCore0(t *testing.T) {
	r, err := NewRing(8, 8, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig 5a: from core 0, slices 0,2,4,6 are the cheap mode,
	// 1,3,5,7 the expensive mode.
	maxEven, minOdd := 0, 1<<30
	for s := 0; s < 8; s += 2 {
		if p := r.Penalty(0, s); p > maxEven {
			maxEven = p
		}
	}
	for s := 1; s < 8; s += 2 {
		if p := r.Penalty(0, s); p < minOdd {
			minOdd = p
		}
	}
	if maxEven >= minOdd {
		t.Errorf("not bimodal: max even-slice penalty %d ≥ min odd-slice penalty %d", maxEven, minOdd)
	}
	if r.Penalty(0, 0) != 0 {
		t.Errorf("local slice penalty = %d, want 0", r.Penalty(0, 0))
	}
}

func TestRingSymmetryAndShortestPath(t *testing.T) {
	r, _ := NewRing(8, 8, 2, 9)
	for c := 0; c < 8; c++ {
		for s := 0; s < 8; s++ {
			if r.Penalty(c, s) != r.Penalty(s, c) {
				t.Errorf("asymmetric penalty (%d,%d)", c, s)
			}
		}
	}
	// core 0 → slice 6 should take the short way (2 hops), not 6.
	if got := r.Penalty(0, 6); got != 4 {
		t.Errorf("Penalty(0,6) = %d, want 4 (2 hops × 2 cycles)", got)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(8, 6, 2, 9); err == nil {
		t.Error("ring with slices≠cores accepted")
	}
	if _, err := NewRing(0, 0, 2, 9); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing(8, 8, -1, 9); err == nil {
		t.Error("negative cost accepted")
	}
}

func TestRingPanicsOutOfRange(t *testing.T) {
	r, _ := NewRing(4, 4, 2, 9)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range penalty did not panic")
		}
	}()
	r.Penalty(0, 4)
}

func TestMeshDistances(t *testing.T) {
	m, err := NewMesh(8, 18, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores() != 8 || m.Slices() != 18 {
		t.Fatalf("shape %d/%d", m.Cores(), m.Slices())
	}
	// A core is co-located with its tile: zero penalty there.
	for c := 0; c < 8; c++ {
		if p := m.Penalty(c, m.corePos[c]); p != 0 {
			t.Errorf("core %d: penalty to own tile = %d", c, p)
		}
	}
	// Triangle sanity: penalties are multiples of the hop cost and bounded
	// by the grid diameter (5+2 hops × 3 cycles).
	for c := 0; c < 8; c++ {
		for s := 0; s < 18; s++ {
			p := m.Penalty(c, s)
			if p%3 != 0 || p > 21 {
				t.Errorf("Penalty(%d,%d) = %d implausible", c, s, p)
			}
		}
	}
}

func TestMeshCorePlacementDistinct(t *testing.T) {
	m, _ := NewMesh(8, 18, 6, 3)
	seen := map[int]bool{}
	for c := 0; c < 8; c++ {
		tile := m.corePos[c]
		if seen[tile] {
			t.Errorf("two cores share tile %d", tile)
		}
		seen[tile] = true
	}
	// Placement mirrors Table 4's primary slices.
	want := []int{0, 4, 8, 12, 10, 14, 3, 15}
	for c, w := range want {
		if m.corePos[c] != w {
			t.Errorf("core %d tile = %d, want %d", c, m.corePos[c], w)
		}
	}
}

func TestMeshValidation(t *testing.T) {
	if _, err := NewMesh(8, 18, 5, 3); err == nil {
		t.Error("non-tiling cols accepted")
	}
	if _, err := NewMesh(20, 18, 6, 3); err == nil {
		t.Error("more cores than tiles accepted")
	}
	if _, err := NewMesh(8, 18, 6, -3); err == nil {
		t.Error("negative hop cost accepted")
	}
}

func TestNewFromProfile(t *testing.T) {
	rt, err := New(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.(*RingBus); !ok {
		t.Errorf("Haswell topology = %T, want *RingBus", rt)
	}
	mt, err := New(arch.SkylakeGold6134())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mt.(*MeshGrid); !ok {
		t.Errorf("Skylake topology = %T, want *MeshGrid", mt)
	}
}

func TestPreferences(t *testing.T) {
	m, _ := NewMesh(8, 18, 6, 3)
	prefs := Preferences(m)
	if len(prefs) != 8 {
		t.Fatalf("got %d preference rows", len(prefs))
	}
	for _, p := range prefs {
		if p.Primary != m.corePos[p.Core] {
			t.Errorf("core %d primary = S%d, want its own tile S%d", p.Core, p.Primary, m.corePos[p.Core])
		}
		if len(p.Ordered) != 18 {
			t.Errorf("core %d ordered list has %d entries", p.Core, len(p.Ordered))
		}
		// Ordered must be non-decreasing in penalty.
		for i := 1; i < len(p.Ordered); i++ {
			if m.Penalty(p.Core, p.Ordered[i-1]) > m.Penalty(p.Core, p.Ordered[i]) {
				t.Errorf("core %d ordered list not sorted", p.Core)
			}
		}
		// Secondary slices must all cost the same (one latency tier).
		if len(p.Secondary) > 1 {
			c0 := m.Penalty(p.Core, p.Secondary[0])
			for _, s := range p.Secondary[1:] {
				if m.Penalty(p.Core, s) != c0 {
					t.Errorf("core %d secondary tier has mixed costs", p.Core)
				}
			}
		}
	}
}

func TestPreferencesRing(t *testing.T) {
	r, _ := NewRing(8, 8, 2, 9)
	prefs := Preferences(r)
	for _, p := range prefs {
		if p.Primary != p.Core {
			t.Errorf("ring: core %d primary = %d, want co-located slice", p.Core, p.Primary)
		}
	}
}
