// Package llcmgmt is the I/O-aware multi-tenant LLC management subsystem:
// a tenant registry binding flows, cores and an LLC budget together, a
// monitor sampling each tenant's leaky-DMA first touches into sliding
// windows of control epochs, and a closed-loop controller that reassigns CAT
// ways, DDIO ways and preferred slices per tenant in deterministic control
// epochs.
//
// The pathology it manages is the paper's DDIO observation taken to its
// multi-tenant conclusion: every NIC on the socket DMA-fills the same two
// LLC ways, so one tenant's overdriven port churns those ways faster than
// a co-located tenant's cores can consume their own RX lines — the
// victim's first-touch reads miss to DRAM ("leaky DMA", the IOCA/A4
// contention mode). The registry makes tenancy explicit; the controller
// splits the I/O ways and the core-side capacity only when the monitor's
// per-tenant first-touch signal says sharing has turned hostile, with
// hysteresis (an overload.Ladder) and flap suppression (an
// overload.Breaker) keeping reallocations rare and observable.
package llcmgmt

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"sliceaware/internal/cachesim"
	"sliceaware/internal/cat"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/slicemem"
	"sliceaware/internal/telemetry"
)

// Registry validation errors, matched by the table-driven tests.
var (
	// ErrCoreConflict marks a tenant claiming a core another tenant owns.
	ErrCoreConflict = errors.New("llcmgmt: core already owned by another tenant")
	// ErrMaskOverlap marks a static CAT budget overlapping another
	// tenant's budget.
	ErrMaskOverlap = errors.New("llcmgmt: CAT budget overlaps another tenant's")
	// ErrDDIOBudget marks DDIO-way requests that exceed the socket's DDIO
	// capacity when summed across tenants.
	ErrDDIOBudget = errors.New("llcmgmt: DDIO way requests exceed the socket's DDIO ways")
	// ErrTenant marks a malformed tenant definition (empty name, duplicate
	// name, no cores, out-of-range core).
	ErrTenant = errors.New("llcmgmt: invalid tenant definition")
	// ErrWorkload marks a workload attachment the tenant cannot host.
	ErrWorkload = errors.New("llcmgmt: workload does not fit the tenant")
)

// TenantClass partitions tenants by what the controller optimizes for.
type TenantClass int

const (
	// LatencyCritical tenants are the controller's protected class: their
	// first-touch miss ratio is the pressure signal, and isolation plans
	// give them dedicated I/O ways.
	LatencyCritical TenantClass = iota
	// Bulk tenants are throughput-oriented aggressors-by-default; under
	// isolation they share the remaining I/O ways.
	Bulk
)

// String implements fmt.Stringer.
func (c TenantClass) String() string {
	switch c {
	case LatencyCritical:
		return "latency-critical"
	case Bulk:
		return "bulk"
	default:
		return fmt.Sprintf("TenantClass(%d)", int(c))
	}
}

// TenantConfig declares one tenant's identity and resource claim.
type TenantConfig struct {
	Name  string
	Class TenantClass
	// Cores the tenant owns, disjoint across tenants. A net workload
	// additionally requires them to be one contiguous ascending run (the
	// queue-q → core CoreOffset+q mapping).
	Cores []int
	// Flows are the tenant's flow identifiers; AttachNet pre-installs a
	// FlowDirector rule per flow, round-robin across the tenant's queues.
	Flows []uint64
	// CATWays is an optional static capacity budget (an
	// IA32_L3_QOS_MASK-style way bitmask). Zero leaves the tenant's cores
	// on COS0's full mask until the controller intervenes. Non-zero masks
	// must be contiguous, disjoint across tenants, and must not swallow
	// the DDIO ways (the registry arms cat.SetDDIOProtect).
	CATWays cachesim.WayMask
	// DDIOWays is the number of I/O ways the tenant receives when an
	// isolation plan is in force; 0 defaults to 1. The sum across tenants
	// must fit the socket's DDIO ways.
	DDIOWays int
}

// Tenant is a registered tenant: its claim, its COS binding, and whatever
// workloads have been attached.
type Tenant struct {
	cfg TenantConfig
	idx int
	cos int

	port *dpdk.Port
	dut  *netsim.DuT

	// compromise is the slice minimizing mean access cost over the
	// tenant's cores (slicemem.CompromiseSlice) — where the controller
	// homes tenant-shared state and what the preferred-slice gauge shows.
	compromise int

	// Applied state, owned by the controller; mirrored into gauges.
	appliedDDIO cachesim.WayMask // 0 = socket-wide sharing
	appliedCAT  cachesim.WayMask // 0 = COS0 full mask
	pressure    float64          // last monitored leak pressure
}

// Cores returns a copy of the tenant's core list (ascending).
func (t *Tenant) Cores() []int { return append([]int(nil), t.cfg.Cores...) }

// Port returns the tenant's NIC port (nil before AttachNet).
func (t *Tenant) Port() *dpdk.Port { return t.port }

// DuT returns the tenant's device under test (nil before AttachNet).
func (t *Tenant) DuT() *netsim.DuT { return t.dut }

// Registry owns the machine-wide tenancy map: which tenant owns which
// cores, flows and way budgets, and the CAT controller programming them.
type Registry struct {
	machine *cpusim.Machine
	cat     *cat.Controller
	tele    *telemetry.Collector

	tenants   []*Tenant
	coreOwner map[int]int // core → tenant index
	ddioAsked int         // summed effective DDIOWays requests
}

// NewRegistry builds a registry over the machine. The CAT controller is
// created with 16 classes (COS0 stays the shared full-mask class; tenant i
// gets COS i+1) and the DDIO-protect guard is armed with the machine's
// DDIO mask, so no tenant budget can swallow the I/O ways. The collector
// may be nil (uninstrumented).
func NewRegistry(machine *cpusim.Machine, tele *telemetry.Collector) (*Registry, error) {
	if machine == nil {
		return nil, fmt.Errorf("llcmgmt: registry needs a machine")
	}
	ctl, err := cat.NewController(machine, 16)
	if err != nil {
		return nil, err
	}
	ctl.SetDDIOProtect(machine.LLC.DDIOWayMask())
	tele.BindLLC(machine.LLC)
	return &Registry{
		machine:   machine,
		cat:       ctl,
		tele:      tele,
		coreOwner: make(map[int]int),
	}, nil
}

// Machine returns the shared machine.
func (r *Registry) Machine() *cpusim.Machine { return r.machine }

// Register validates a tenant's claim against every other tenant's and, on
// success, assigns a COS, programs any static CAT budget, and registers
// the tenant's telemetry gauges.
func (r *Registry) Register(cfg TenantConfig) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrTenant)
	}
	for _, t := range r.tenants {
		if t.cfg.Name == cfg.Name {
			return nil, fmt.Errorf("%w: duplicate name %q", ErrTenant, cfg.Name)
		}
	}
	if len(cfg.Cores) == 0 {
		return nil, fmt.Errorf("%w: tenant %q owns no cores", ErrTenant, cfg.Name)
	}
	cores := append([]int(nil), cfg.Cores...)
	sort.Ints(cores)
	for i, c := range cores {
		if c < 0 || c >= r.machine.Cores() {
			return nil, fmt.Errorf("%w: tenant %q core %d outside 0..%d",
				ErrTenant, cfg.Name, c, r.machine.Cores()-1)
		}
		if i > 0 && cores[i-1] == c {
			return nil, fmt.Errorf("%w: tenant %q lists core %d twice", ErrTenant, cfg.Name, c)
		}
		if owner, taken := r.coreOwner[c]; taken {
			return nil, fmt.Errorf("%w: core %d belongs to %q",
				ErrCoreConflict, c, r.tenants[owner].cfg.Name)
		}
	}
	cfg.Cores = cores

	if cfg.CATWays != 0 {
		for _, t := range r.tenants {
			if t.cfg.CATWays&cfg.CATWays != 0 {
				return nil, fmt.Errorf("%w: %#x collides with tenant %q's %#x",
					ErrMaskOverlap, uint64(cfg.CATWays), t.cfg.Name, uint64(t.cfg.CATWays))
			}
		}
	}

	ddio := cfg.DDIOWays
	if ddio == 0 {
		ddio = 1
	}
	if ddio < 0 {
		return nil, fmt.Errorf("%w: tenant %q requests %d DDIO ways", ErrTenant, cfg.Name, ddio)
	}
	if r.ddioAsked+ddio > r.machine.LLC.DDIOWays() {
		return nil, fmt.Errorf("%w: %d requested so far + %d for %q > %d available",
			ErrDDIOBudget, r.ddioAsked, ddio, cfg.Name, r.machine.LLC.DDIOWays())
	}
	cfg.DDIOWays = ddio

	t := &Tenant{cfg: cfg, idx: len(r.tenants), cos: len(r.tenants) + 1, compromise: -1}
	if t.cos >= r.cat.NumCOS() {
		return nil, fmt.Errorf("%w: no COS left for tenant %q (max %d tenants)",
			ErrTenant, cfg.Name, r.cat.NumCOS()-1)
	}
	if cfg.CATWays != 0 {
		// SetCapacityMask enforces contiguity and the DDIO-protect guard
		// (a mask swallowing the I/O ways is rejected here).
		if err := r.cat.SetCapacityMask(t.cos, uint64(cfg.CATWays)); err != nil {
			return nil, err
		}
		for _, c := range cfg.Cores {
			if err := r.cat.Associate(c, t.cos); err != nil {
				return nil, err
			}
		}
		t.appliedCAT = cfg.CATWays
	}
	if s, err := slicemem.CompromiseSlice(r.machine.Topo, cfg.Cores); err == nil {
		t.compromise = s
	}

	r.tenants = append(r.tenants, t)
	for _, c := range cfg.Cores {
		r.coreOwner[c] = t.idx
	}
	r.ddioAsked += ddio
	r.registerGauges(t)
	return t, nil
}

// registerGauges exports the tenant's applied allocation and monitored
// pressure. GaugeFuncs read the tenant struct at export time, so the
// controller's reassignments are visible without further wiring.
func (r *Registry) registerGauges(t *Tenant) {
	reg := r.tele.Registry()
	if reg == nil {
		return
	}
	lbl := fmt.Sprintf(`tenant=%q`, t.cfg.Name)
	reg.GaugeFunc("llcmgmt_tenant_cat_ways",
		"LLC ways backing the tenant's cores (full associativity when unconstrained)", lbl,
		func() float64 {
			if t.appliedCAT == 0 {
				return float64(r.machine.Profile.LLCSlice.Ways)
			}
			return float64(bits.OnesCount64(uint64(t.appliedCAT)))
		})
	reg.GaugeFunc("llcmgmt_tenant_ddio_ways",
		"I/O ways the tenant's port may DMA into (socket-wide share when 0 override)", lbl,
		func() float64 {
			if t.appliedDDIO == 0 {
				return float64(r.machine.LLC.DDIOWays())
			}
			return float64(bits.OnesCount64(uint64(t.appliedDDIO)))
		})
	reg.GaugeFunc("llcmgmt_tenant_pref_slice",
		"Compromise LLC slice for tenant-shared state", lbl,
		func() float64 { return float64(t.compromise) })
	reg.GaugeFunc("llcmgmt_tenant_leak_pressure",
		"Monitored first-touch miss ratio over the controller window", lbl,
		func() float64 { return t.pressure })
}

// NetWorkloadConfig sizes a tenant's packet-processing workload.
type NetWorkloadConfig struct {
	Chain *nfv.Chain
	// RingSize / PoolMbufs size each queue (dpdk defaults when zero).
	RingSize  int
	PoolMbufs int
	Steering  dpdk.Steering
	// OverheadCycles / Burst forward to netsim (defaults when zero).
	OverheadCycles uint64
	Burst          int
}

// AttachNet gives the tenant a NIC port (named after the tenant, so its
// telemetry is labelled) polled by the tenant's cores, and pre-installs
// one FlowDirector rule per tenant flow, round-robin across queues. The
// tenant's cores must form one contiguous ascending run — queue q polls on
// core Cores[0]+q.
func (r *Registry) AttachNet(t *Tenant, cfg NetWorkloadConfig) (*netsim.DuT, error) {
	if t.dut != nil {
		return nil, fmt.Errorf("%w: tenant %q already has a net workload", ErrWorkload, t.cfg.Name)
	}
	for i := 1; i < len(t.cfg.Cores); i++ {
		if t.cfg.Cores[i] != t.cfg.Cores[i-1]+1 {
			return nil, fmt.Errorf("%w: tenant %q cores %v are not contiguous (queue→core mapping needs a run)",
				ErrWorkload, t.cfg.Name, t.cfg.Cores)
		}
	}
	port, err := dpdk.NewPort(r.machine, dpdk.PortConfig{
		Name:      t.cfg.Name,
		Queues:    len(t.cfg.Cores),
		RingSize:  cfg.RingSize,
		PoolMbufs: cfg.PoolMbufs,
		Steering:  cfg.Steering,
	})
	if err != nil {
		return nil, err
	}
	for i, f := range t.cfg.Flows {
		if err := port.InstallFlowRule(f, i%port.Queues()); err != nil {
			return nil, err
		}
	}
	dut, err := netsim.NewDuT(netsim.DuTConfig{
		Machine:        r.machine,
		Port:           port,
		Chain:          cfg.Chain,
		CoreOffset:     t.cfg.Cores[0],
		OverheadCycles: cfg.OverheadCycles,
		Burst:          cfg.Burst,
		Telemetry:      r.tele,
	})
	if err != nil {
		return nil, err
	}
	t.port, t.dut = port, dut
	return dut, nil
}
