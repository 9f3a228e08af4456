// Package arch defines the simulated CPU architecture profiles used
// throughout the repository.
//
// A Profile captures everything the cache and interconnect simulators need
// to know about a processor: cache geometry (sizes, ways, line size),
// core/slice topology, nominal latencies, DDIO configuration and the
// Complex Addressing hash family. Two profiles ship with the library,
// mirroring the two machines evaluated in the paper:
//
//   - HaswellE52667v3: Intel Xeon E5-2667 v3 — 8 cores, ring interconnect,
//     inclusive LLC with 8 slices of 2.5 MB (Table 1 of the paper).
//   - SkylakeGold6134: Intel Xeon Gold 6134 — 8 cores, mesh interconnect,
//     non-inclusive (victim) LLC with 18 slices of 1.375 MB (§6).
package arch

import "fmt"

// CacheLineSize is the unit of cache management for every simulated cache.
const CacheLineSize = 64

// InterconnectKind selects the on-die fabric connecting cores and slices.
type InterconnectKind int

const (
	// Ring is the bi-directional ring bus used up to Broadwell.
	Ring InterconnectKind = iota
	// Mesh is the 2-D mesh used by the Xeon Scalable family (Skylake+).
	Mesh
)

func (k InterconnectKind) String() string {
	switch k {
	case Ring:
		return "ring"
	case Mesh:
		return "mesh"
	default:
		return fmt.Sprintf("InterconnectKind(%d)", int(k))
	}
}

// LLCMode describes the inclusion relationship between L2 and LLC.
type LLCMode int

const (
	// Inclusive LLC contains a superset of all L2 contents (Haswell).
	Inclusive LLCMode = iota
	// NonInclusive LLC acts as a victim cache for L2 (Skylake).
	NonInclusive
)

func (m LLCMode) String() string {
	switch m {
	case Inclusive:
		return "inclusive"
	case NonInclusive:
		return "non-inclusive"
	default:
		return fmt.Sprintf("LLCMode(%d)", int(m))
	}
}

// CacheGeometry describes one cache level.
type CacheGeometry struct {
	SizeBytes int // total capacity in bytes
	Ways      int // set associativity
	LineSize  int // bytes per line (always 64 in the studied systems)
}

// Sets returns the number of sets in the cache.
func (g CacheGeometry) Sets() int {
	if g.Ways == 0 || g.LineSize == 0 {
		return 0
	}
	return g.SizeBytes / (g.Ways * g.LineSize)
}

// IndexBits returns the [hi, lo] physical-address bit range used as the set
// index, matching the "Index-bits[range]" column of Table 1.
func (g CacheGeometry) IndexBits() (hi, lo int) {
	lo = log2(g.LineSize)
	sets := g.Sets()
	return lo + log2(sets) - 1, lo
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Profile is a complete simulated-processor description.
type Profile struct {
	Name string

	Cores  int
	Slices int

	FrequencyHz float64 // core clock; cycles→time conversions use this

	L1D      CacheGeometry // per-core L1 data cache
	L2       CacheGeometry // per-core L2
	LLCSlice CacheGeometry // one LLC slice

	LLCMode      LLCMode
	Interconnect InterconnectKind

	// Latencies in core cycles. LLCBase is the load-to-use latency of the
	// closest slice before any interconnect penalty is added.
	L1Latency   int
	L2Latency   int
	LLCBase     int
	DRAMLatency int

	// Ring parameters (Interconnect == Ring).
	RingHopCycles   int // per-hop cost on the ring
	RingCrossCycles int // extra cost to reach an opposite-parity ring stop

	// Mesh parameters (Interconnect == Mesh).
	MeshCols      int // tiles per row in the mesh grid
	MeshHopCycles int // per-hop (Manhattan) cost

	// DDIO configuration: how many LLC ways NIC DMA may allocate into.
	DDIOWays int

	// HashSelect chooses the Complex Addressing family: true for the
	// 2ⁿ-slice XOR matrix, false for the generalized many-slice hash.
	PowerOfTwoSlices bool
}

// LLCTotalBytes is the aggregate LLC capacity across all slices.
func (p *Profile) LLCTotalBytes() int { return p.LLCSlice.SizeBytes * p.Slices }

// CyclesToNanos converts a cycle count to nanoseconds at the profile clock.
func (p *Profile) CyclesToNanos(cycles float64) float64 {
	return cycles / p.FrequencyHz * 1e9
}

// Validate reports a descriptive error for an inconsistent profile.
func (p *Profile) Validate() error {
	switch {
	case p.Cores <= 0:
		return fmt.Errorf("arch: profile %q: cores must be positive, got %d", p.Name, p.Cores)
	case p.Slices <= 0:
		return fmt.Errorf("arch: profile %q: slices must be positive, got %d", p.Name, p.Slices)
	case p.L1D.LineSize != CacheLineSize || p.L2.LineSize != CacheLineSize || p.LLCSlice.LineSize != CacheLineSize:
		return fmt.Errorf("arch: profile %q: all caches must use %d B lines", p.Name, CacheLineSize)
	case p.DDIOWays <= 0 || p.DDIOWays > p.LLCSlice.Ways:
		return fmt.Errorf("arch: profile %q: DDIO ways %d out of range 1..%d", p.Name, p.DDIOWays, p.LLCSlice.Ways)
	case p.PowerOfTwoSlices && p.Slices&(p.Slices-1) != 0:
		return fmt.Errorf("arch: profile %q: PowerOfTwoSlices set but %d slices", p.Name, p.Slices)
	}
	for _, g := range []struct {
		name string
		geo  CacheGeometry
	}{{"L1D", p.L1D}, {"L2", p.L2}, {"LLC slice", p.LLCSlice}} {
		if g.geo.Sets()*g.geo.Ways*g.geo.LineSize != g.geo.SizeBytes {
			return fmt.Errorf("arch: profile %q: %s geometry %d B is not sets×ways×line", p.Name, g.name, g.geo.SizeBytes)
		}
	}
	return nil
}

// HaswellE52667v3 returns the Intel Xeon E5-2667 v3 profile (Table 1).
// Each call returns a fresh copy so callers may tweak fields freely.
func HaswellE52667v3() *Profile {
	return &Profile{
		Name:        "Intel Xeon E5-2667 v3 (Haswell)",
		Cores:       8,
		Slices:      8,
		FrequencyHz: 3.2e9,
		L1D:         CacheGeometry{SizeBytes: 32 << 10, Ways: 8, LineSize: 64},
		L2:          CacheGeometry{SizeBytes: 256 << 10, Ways: 8, LineSize: 64},
		LLCSlice:    CacheGeometry{SizeBytes: 2560 << 10, Ways: 20, LineSize: 64},

		LLCMode:      Inclusive,
		Interconnect: Ring,

		L1Latency:   4,
		L2Latency:   11,
		LLCBase:     34,
		DRAMLatency: 192, // ≈60 ns at 3.2 GHz

		RingHopCycles:   3,
		RingCrossCycles: 10,

		DDIOWays:         2,
		PowerOfTwoSlices: true,
	}
}

// SkylakeGold6134 returns the Intel Xeon Gold 6134 profile (§6): 8 cores but
// 18 LLC slices on a mesh, quadrupled L2, non-inclusive LLC.
func SkylakeGold6134() *Profile {
	return &Profile{
		Name:        "Intel Xeon Gold 6134 (Skylake)",
		Cores:       8,
		Slices:      18,
		FrequencyHz: 3.2e9,
		L1D:         CacheGeometry{SizeBytes: 32 << 10, Ways: 8, LineSize: 64},
		L2:          CacheGeometry{SizeBytes: 1 << 20, Ways: 16, LineSize: 64},
		LLCSlice:    CacheGeometry{SizeBytes: 1408 << 10, Ways: 11, LineSize: 64},

		LLCMode:      NonInclusive,
		Interconnect: Mesh,

		L1Latency:   4,
		L2Latency:   14,
		LLCBase:     40,
		DRAMLatency: 200,

		MeshCols:      6, // 6×3 grid of 18 slice tiles
		MeshHopCycles: 3,

		DDIOWays:         2,
		PowerOfTwoSlices: false,
	}
}
