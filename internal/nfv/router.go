package nfv

import (
	"fmt"

	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/phys"
)

// Router is an IPv4 router backed by a real DIR-24-8 longest-prefix-match
// structure (the same layout DPDK's librte_lpm uses): a 2²⁴-entry first
// table indexed by the top 24 address bits, overflowing into 256-entry
// second-level groups for longer prefixes. A lookup costs one table access,
// or two when the /24 entry points at a group.
//
// The paper's evaluation offloads a 3120-entry routing table to the NIC via
// FlowDirector and keeps the rest of the router in software; our Router
// supports both: with HWOffload set, matched flows skip the LPM access
// (the NIC already steered and classified them) and only pay the remaining
// software work.
type Router struct {
	tbl24 []uint16 // valid<<15 | group<<14 | index
	tbl8  [][]uint16

	// Simulated addresses of the tables, so lookups charge the cache walk.
	tbl24Base uint64
	tbl8Base  uint64

	routes int

	// HWOffload models Metron's FlowDirector table offload (§5.2).
	HWOffload bool
}

const (
	lpmValid = 1 << 15
	lpmGroup = 1 << 14
	lpmMask  = lpmGroup - 1
)

// NewRouter allocates the LPM tables in simulated memory.
func NewRouter(space *phys.Space) (*Router, error) {
	const tbl24Bytes = (1 << 24) * 2
	m24, err := space.Map(tbl24Bytes, phys.PageSize1G)
	if err != nil {
		return nil, fmt.Errorf("nfv: router tbl24: %w", err)
	}
	m8, err := space.Map(1<<20, phys.PageSize2M) // room for 2048 groups
	if err != nil {
		return nil, fmt.Errorf("nfv: router tbl8: %w", err)
	}
	return &Router{
		tbl24:     make([]uint16, 1<<24),
		tbl24Base: m24.VirtBase,
		tbl8Base:  m8.VirtBase,
	}, nil
}

// Name implements NF.
func (*Router) Name() string { return "Router" }

// AddRoute installs prefix/length → nextHop (nextHop in 0..2¹³).
func (r *Router) AddRoute(prefix uint32, length int, nextHop uint16) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("nfv: prefix length %d out of range", length)
	}
	if nextHop >= lpmGroup {
		return fmt.Errorf("nfv: next hop %d exceeds 14-bit field", nextHop)
	}
	prefix &= prefixMask(length)
	if length <= 24 {
		// Cover every /24 bucket under the prefix, respecting more
		// specific existing routes is unnecessary for our workloads
		// (routes install longest-last in tests when it matters).
		start := prefix >> 8
		count := uint32(1) << uint(24-length)
		if len(r.tbl8) == 0 {
			// No group exists, so none of the buckets is one: fill the
			// run by doubling copies.
			run := r.tbl24[start : start+count]
			run[0] = lpmValid | nextHop
			for n := 1; n < len(run); n *= 2 {
				copy(run[n:], run[:n])
			}
			r.routes++
			return nil
		}
		for i := uint32(0); i < count; i++ {
			e := r.tbl24[start+i]
			if e&lpmValid != 0 && e&lpmGroup != 0 {
				// Fill the group's uncovered slots instead.
				g := r.tbl8[e&lpmMask]
				for j := range g {
					if g[j]&lpmValid == 0 {
						g[j] = lpmValid | nextHop
					}
				}
				continue
			}
			r.tbl24[start+i] = lpmValid | nextHop
		}
		r.routes++
		return nil
	}
	// Longer than /24: expand into a tbl8 group.
	bucket := prefix >> 8
	e := r.tbl24[bucket]
	var g []uint16
	if e&lpmValid != 0 && e&lpmGroup != 0 {
		g = r.tbl8[e&lpmMask]
	} else {
		g = make([]uint16, 256)
		if e&lpmValid != 0 {
			// Push the existing /≤24 route down into every slot.
			for j := range g {
				g[j] = e
			}
		}
		idx := len(r.tbl8)
		if idx >= lpmGroup {
			return fmt.Errorf("nfv: tbl8 groups exhausted")
		}
		r.tbl8 = append(r.tbl8, g)
		r.tbl24[bucket] = lpmValid | lpmGroup | uint16(idx)
	}
	start := prefix & 0xff
	count := uint32(1) << uint(32-length)
	for i := uint32(0); i < count; i++ {
		g[start+uint32(i)] = lpmValid | nextHop
	}
	r.routes++
	return nil
}

func prefixMask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	return ^uint32(0) << uint(32-length)
}

// Lookup resolves dst to a next hop, charging the table accesses to core.
// ok is false when no route covers dst.
func (r *Router) Lookup(core *cpusim.Core, dst uint32) (nextHop uint16, ok bool) {
	bucket := dst >> 8
	if core != nil {
		core.Read(r.tbl24Base + uint64(bucket)*2)
	}
	e := r.tbl24[bucket]
	if e&lpmValid == 0 {
		return 0, false
	}
	if e&lpmGroup == 0 {
		return e & lpmMask, true
	}
	gi := e & lpmMask
	slot := dst & 0xff
	if core != nil {
		core.Read(r.tbl8Base + uint64(gi)*512 + uint64(slot)*2)
	}
	ge := r.tbl8[gi][slot]
	if ge&lpmValid == 0 {
		return 0, false
	}
	return ge & lpmMask, true
}

// Process implements NF: parse the header, LPM the destination, decrement
// TTL and rewrite the egress MAC (a header write).
func (r *Router) Process(core *cpusim.Core, mb *dpdk.Mbuf) bool {
	headerAccess(core, mb, true)
	core.AddCycles(routerComputeCycles)
	if r.HWOffload {
		// The NIC's FlowDirector already matched this flow against the
		// offloaded routing table; software skips the LPM walk.
		return true
	}
	if _, ok := r.Lookup(core, mb.Pkt.DstIP); !ok {
		return false
	}
	return true
}

// PopulateDefaultAndRandom installs a default route plus n−1 synthetic
// prefixes, mirroring the 3120-entry table of §5.2.
func (r *Router) PopulateDefaultAndRandom(n int) error {
	if err := r.AddRoute(0, 0, 1); err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		prefix := uint32(i*2654435761) | 0x0100_0000
		length := 8 + i%17 // /8../24
		if err := r.AddRoute(prefix, length, uint16(i%1000+2)); err != nil {
			return err
		}
	}
	return nil
}
