package cat

import (
	"fmt"
	"math/bits"

	"sliceaware/internal/cachesim"
	"sliceaware/internal/cpusim"
)

// Controller models the software interface of Intel Cache Allocation
// Technology as it actually appears to system software: capacity bitmasks
// per class of service (the IA32_L3_QOS_MASK_n MSRs) and a per-core COS
// binding (IA32_PQR_ASSOC). The hardware constraints are enforced —
// masks must be non-empty *contiguous* runs of ways, within the cache's
// associativity, and the COS count is fixed at construction.
type Controller struct {
	machine *cpusim.Machine
	ways    int
	masks   []cachesim.WayMask
	assoc   []int // core → COS
}

// NewController initializes CAT with numCOS classes of service. As on real
// parts, COS0 starts with the full capacity mask and every core starts
// associated with COS0.
func NewController(machine *cpusim.Machine, numCOS int) (*Controller, error) {
	if numCOS < 1 || numCOS > 16 {
		return nil, fmt.Errorf("cat: COS count %d outside 1..16", numCOS)
	}
	ways := machine.Profile.LLCSlice.Ways
	c := &Controller{
		machine: machine,
		ways:    ways,
		masks:   make([]cachesim.WayMask, numCOS),
		assoc:   make([]int, machine.Cores()),
	}
	full := cachesim.MaskOfWays(ways)
	for i := range c.masks {
		c.masks[i] = full
	}
	c.applyAll()
	return c, nil
}

// SetCapacityMask programs a class's capacity bitmask (IA32_L3_QOS_MASK).
// Hardware rejects empty, oversized, or non-contiguous masks.
func (c *Controller) SetCapacityMask(cos int, mask uint64) error {
	if cos < 0 || cos >= len(c.masks) {
		return fmt.Errorf("cat: COS %d out of range 0..%d", cos, len(c.masks)-1)
	}
	if mask == 0 {
		return fmt.Errorf("cat: empty capacity mask")
	}
	if mask>>uint(c.ways) != 0 {
		return fmt.Errorf("cat: mask %#x exceeds the %d-way cache", mask, c.ways)
	}
	if !contiguous(mask) {
		return fmt.Errorf("cat: mask %#x is not a contiguous run of ways (hardware requirement)", mask)
	}
	c.masks[cos] = cachesim.WayMask(mask)
	c.applyAll()
	return nil
}

// Associate binds a core to a class of service (IA32_PQR_ASSOC).
func (c *Controller) Associate(core, cos int) error {
	if core < 0 || core >= len(c.assoc) {
		return fmt.Errorf("cat: core %d out of range", core)
	}
	if cos < 0 || cos >= len(c.masks) {
		return fmt.Errorf("cat: COS %d out of range", cos)
	}
	c.assoc[core] = cos
	c.machine.SetCoreCATMask(core, c.masks[cos])
	return nil
}

// applyAll pushes every core's effective mask into the machine.
func (c *Controller) applyAll() {
	for core, cos := range c.assoc {
		c.machine.SetCoreCATMask(core, c.masks[cos])
	}
}

// contiguous reports whether the set bits of m form one unbroken run.
func contiguous(m uint64) bool {
	shifted := m >> uint(bits.TrailingZeros64(m))
	return shifted&(shifted+1) == 0
}
