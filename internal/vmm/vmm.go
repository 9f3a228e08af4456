// Package vmm models the hypervisor use case §7 sketches as future work:
// "slice isolation can also be employed in hypervisors (e.g., KVM) to
// allocate different LLC slices to different virtual machines". A
// Hypervisor places each VM's memory either normally (contiguous, every
// VM's lines spread over all slices) or slice-isolated (each VM owns a
// disjoint set of slices chosen near its vCPU), and an interference run
// measures what a noisy VM does to its neighbours under each policy.
package vmm

import (
	"fmt"
	"math/rand"

	"sliceaware/internal/cpusim"
	"sliceaware/internal/interconnect"
	"sliceaware/internal/slicemem"
)

// Policy selects VM memory placement.
type Policy int

const (
	// Shared places every VM's memory contiguously: Complex Addressing
	// spreads all VMs over all slices (today's default).
	Shared Policy = iota
	// SliceIsolated gives each VM a disjoint slice set near its vCPU.
	SliceIsolated
)

func (p Policy) String() string {
	if p == SliceIsolated {
		return "slice-isolated"
	}
	return "shared"
}

// VMConfig describes one guest.
type VMConfig struct {
	Name       string
	Core       int // the physical core its vCPU is pinned to
	WorkingSet int // bytes of guest memory it actively touches
	// Noisy guests stream through their working set (cache-hostile);
	// quiet guests do uniform random re-accesses (cache-friendly).
	Noisy bool
}

// VM is one placed guest.
type VM struct {
	cfg   VMConfig
	core  *cpusim.Core
	lines []uint64
	pos   int // streaming position for noisy guests

	rng *rand.Rand
}

// Hypervisor owns placement and scheduling of the guests.
type Hypervisor struct {
	machine *cpusim.Machine
	alloc   *slicemem.Allocator
	policy  Policy

	vms        []*VM
	ownedSlice map[int]string // slice → VM name (SliceIsolated)
}

// New creates a hypervisor over the machine.
func New(machine *cpusim.Machine, policy Policy) (*Hypervisor, error) {
	alloc, err := slicemem.New(machine.Space, machine.LLC.Hash())
	if err != nil {
		return nil, err
	}
	return &Hypervisor{
		machine:    machine,
		alloc:      alloc,
		policy:     policy,
		ownedSlice: make(map[int]string),
	}, nil
}

// AddVM places a guest. Under SliceIsolated the guest receives the
// unowned slices closest to its vCPU — enough of them to hold its working
// set, always at least one.
func (h *Hypervisor) AddVM(cfg VMConfig) (*VM, error) {
	if cfg.WorkingSet <= 0 {
		return nil, fmt.Errorf("vmm: VM %q needs a positive working set", cfg.Name)
	}
	if cfg.Core < 0 || cfg.Core >= h.machine.Cores() {
		return nil, fmt.Errorf("vmm: VM %q core %d out of range", cfg.Name, cfg.Core)
	}
	for _, v := range h.vms {
		if v.cfg.Core == cfg.Core {
			return nil, fmt.Errorf("vmm: core %d already runs VM %q", cfg.Core, v.cfg.Name)
		}
		if v.cfg.Name == cfg.Name {
			return nil, fmt.Errorf("vmm: duplicate VM name %q", cfg.Name)
		}
	}

	vm := &VM{
		cfg:  cfg,
		core: h.machine.Core(cfg.Core),
		rng:  rand.New(rand.NewSource(int64(1000 + cfg.Core))),
	}
	nLines := cfg.WorkingSet / slicemem.LineSize
	switch h.policy {
	case Shared:
		region, err := h.alloc.AllocContiguous(cfg.WorkingSet)
		if err != nil {
			return nil, err
		}
		vm.lines = region.Lines()
	case SliceIsolated:
		slices, err := h.claimSlices(cfg)
		if err != nil {
			return nil, err
		}
		region, err := h.alloc.AllocLinesMulti(slices, nLines)
		if err != nil {
			return nil, err
		}
		vm.lines = region.Lines()
	default:
		return nil, fmt.Errorf("vmm: unknown policy %d", h.policy)
	}
	h.vms = append(h.vms, vm)
	return vm, nil
}

// claimSlices picks unowned slices nearest the VM's core — ideally enough
// to hold the working set (slice capacity each), but never more than half
// the remaining free slices when other guests still need room. A guest
// whose working set exceeds its allotment simply caches less; the slice
// set bounds its LLC footprint (the isolation §7 is after), not its
// memory.
func (h *Hypervisor) claimSlices(cfg VMConfig) ([]int, error) {
	prefs := interconnect.Preferences(h.machine.Topo)[cfg.Core]
	sliceBytes := h.machine.Profile.LLCSlice.SizeBytes
	free := 0
	for s := 0; s < h.machine.LLC.Slices(); s++ {
		if _, owned := h.ownedSlice[s]; !owned {
			free++
		}
	}
	if free == 0 {
		return nil, fmt.Errorf("vmm: no free slices for VM %q", cfg.Name)
	}
	want := (cfg.WorkingSet + sliceBytes - 1) / sliceBytes
	if want < 1 {
		want = 1
	}
	if cap := (free + 1) / 2; want > cap {
		want = cap
	}
	var got []int
	for _, s := range prefs.Ordered {
		if _, owned := h.ownedSlice[s]; owned {
			continue
		}
		got = append(got, s)
		if len(got) == want {
			break
		}
	}
	for _, s := range got {
		h.ownedSlice[s] = cfg.Name
	}
	return got, nil
}

// step performs one guest memory operation.
func (v *VM) step() {
	if v.cfg.Noisy {
		v.core.Read(v.lines[v.pos])
		v.pos++
		if v.pos == len(v.lines) {
			v.pos = 0
		}
		return
	}
	v.core.Read(v.lines[v.rng.Intn(len(v.lines))])
}

// Warmup sweeps every VM's working set once, interleaved.
func (h *Hypervisor) Warmup() {
	max := 0
	for _, v := range h.vms {
		if len(v.lines) > max {
			max = len(v.lines)
		}
	}
	for i := 0; i < max; i++ {
		for _, v := range h.vms {
			v.core.Read(v.lines[i%len(v.lines)])
		}
	}
}

// VMResult is one guest's measured performance.
type VMResult struct {
	Name        string
	CyclesPerOp float64
}

// Run interleaves ops memory operations per VM (round-robin, modelling
// concurrent guests against the shared LLC) and reports per-VM cost.
func (h *Hypervisor) Run(ops int) ([]VMResult, error) {
	if len(h.vms) == 0 {
		return nil, fmt.Errorf("vmm: no VMs placed")
	}
	if ops <= 0 {
		return nil, fmt.Errorf("vmm: need positive ops")
	}
	starts := make([]uint64, len(h.vms))
	for i, v := range h.vms {
		starts[i] = v.core.Cycles()
	}
	for i := 0; i < ops; i++ {
		for _, v := range h.vms {
			v.step()
		}
	}
	out := make([]VMResult, len(h.vms))
	for i, v := range h.vms {
		cy := v.core.Cycles() - starts[i]
		out[i] = VMResult{
			Name:        v.cfg.Name,
			CyclesPerOp: float64(cy) / float64(ops),
		}
	}
	return out, nil
}
