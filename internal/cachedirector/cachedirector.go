// Package cachedirector implements CacheDirector (§4): the DPDK extension
// that makes the buffer manager slice-aware, so the 64 B of each packet
// that the consuming core touches first (normally the header) lands in
// that core's closest LLC slice.
//
// Mechanics, mirroring §4.2:
//
//   - Dynamic headroom: every mbuf's data offset can shift in 64 B steps
//     within a provisioned headroom budget; shifting moves the first data
//     line to a different physical line and therefore a different slice.
//   - Pre-computation: at initialization the director walks each mempool
//     and records, per mbuf and per core, the headroom (in cache lines,
//     4 bits per core packed into udata64) that homes the target line to
//     that core's preferred slice.
//   - Driver hook: just before an mbuf is handed to the NIC for DMA, the
//     driver sets the actual headroom from the pre-computed table using
//     the queue's consuming core.
package cachedirector

import (
	"errors"
	"fmt"

	"sliceaware/internal/chash"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/interconnect"
	"sliceaware/internal/overload"
	"sliceaware/internal/telemetry"
)

// ErrInsufficientHeadroom marks a mempool whose mbufs provision less
// headroom than the director's budget needs.
var ErrInsufficientHeadroom = errors.New("cachedirector: pool headroom below director budget")

// PrepareCycles is the per-packet driver cost of applying the pre-computed
// headroom (one table read and a store into the descriptor path). The
// pre-computation exists precisely to keep this tiny (§4.2, "Mitigating
// calculation overhead").
const PrepareCycles = 2

// MaxCores is the scalability bound of the 4-bit packing: udata64 holds 16
// per-core entries.
const MaxCores = 16

// Config tunes the director.
type Config struct {
	// TargetOffset selects which 64 B portion of the packet to place; 0
	// targets the header, VXLAN/DPI deployments may target deeper bytes.
	TargetOffset int
	// MaxHeadroom bounds the dynamic headroom search. Zero means the
	// CacheDirector default (832 B = 13 lines).
	MaxHeadroom int
	// SpreadTier dilutes per-slice eviction pressure by alternating each
	// core's mbufs between its primary slice and its secondary tier (the
	// multi-slice policy §8 sketches), instead of pinning everything to
	// the primary.
	SpreadTier bool
	// AppSorted models application-level mbuf sorting (§4.2): mempools
	// are pre-partitioned per core, so the driver pays no per-packet
	// headroom adjustment. Placement is identical; only the (small)
	// runtime cost disappears.
	AppSorted bool
	// Hash overrides the slice mapping the director believes in — e.g. a
	// Complex Addressing profile recovered on different silicon (§2.1).
	// Placement decisions use this mapping; the LLC keeps using the
	// machine's true hash, so a wrong profile silently misplaces lines
	// (the failure the watchdog exists to catch). Nil uses the machine's
	// own hash.
	Hash chash.Hash
}

// Director carries the slice-awareness state for one machine.
type Director struct {
	machine *cpusim.Machine
	hash    chash.Hash
	cfg     Config

	// coreSlice[c] is the LLC slice packets for core c should land in.
	coreSlice []int
	// coreTier[c] lists the slices used when SpreadTier is set: the
	// primary followed by the secondary tier.
	coreTier [][]int
	// initSeq counts mbufs seen by InitPool, driving tier alternation.
	initSeq int

	// misses counts (mbuf, core) pairs for which no headroom within the
	// budget reaches the preferred slice; those fall back to headroom 0.
	misses int
	inited int // mbufs initialized

	// wd is the optional placement watchdog (nil until EnableWatchdog).
	wd *watchdog
	// ladder is the optional degradation controller (nil until
	// EnableLadder).
	ladder *overload.Ladder

	// tele surfaces placement decisions and watchdog transitions; nil
	// handles make every update a no-op.
	tele        *telemetry.Collector
	ctrPrepared *telemetry.Counter
	ctrBypassed *telemetry.Counter
	ctrProbes   *telemetry.Counter
	ctrMisses   *telemetry.Counter
}

// SetTelemetry instruments the director: per-queue placement counters,
// watchdog probe counters, and mode transitions as timeline events.
func (d *Director) SetTelemetry(c *telemetry.Collector) {
	d.tele = c
	reg := c.Registry()
	d.ctrPrepared = reg.Counter("cachedirector_prepared_total",
		"Mbufs given slice-aware headroom by the driver hook")
	d.ctrBypassed = reg.CounterL("cachedirector_prepared_total",
		"Mbufs given slice-aware headroom by the driver hook", `mode="degraded"`)
	d.ctrProbes = reg.Counter("cachedirector_watchdog_probes_total",
		"Placement verifications performed by the watchdog")
	d.ctrMisses = reg.CounterL("cachedirector_watchdog_probes_total",
		"Placement verifications performed by the watchdog", `outcome="miss"`)
	if reg != nil {
		reg.GaugeFunc("cachedirector_mode", "Director operating state (0=active, 1=degraded)", "",
			func() float64 { return float64(d.Mode()) })
		reg.GaugeFunc("cachedirector_level", "Effective placement level (0=full, 1=header-only, 2=passthrough)", "",
			func() float64 { return float64(d.CurrentLevel()) })
	}
}

// New builds a director. Core→slice targets default to each core's primary
// (cheapest) slice under the machine's topology.
func New(machine *cpusim.Machine, cfg Config) (*Director, error) {
	if machine.Cores() > MaxCores {
		return nil, fmt.Errorf("cachedirector: %d cores exceed the %d-core udata64 packing", machine.Cores(), MaxCores)
	}
	if cfg.MaxHeadroom == 0 {
		cfg.MaxHeadroom = dpdk.CacheDirectorHeadroom
	}
	if cfg.MaxHeadroom < 0 || cfg.MaxHeadroom%64 != 0 {
		return nil, fmt.Errorf("cachedirector: max headroom %d must be a non-negative line multiple", cfg.MaxHeadroom)
	}
	if cfg.MaxHeadroom/64 > 15 {
		return nil, fmt.Errorf("cachedirector: max headroom %d exceeds the 4-bit line encoding (≤960)", cfg.MaxHeadroom)
	}
	if cfg.TargetOffset < 0 || cfg.TargetOffset%64 != 0 {
		return nil, fmt.Errorf("cachedirector: target offset %d must be a non-negative line multiple", cfg.TargetOffset)
	}
	hash := cfg.Hash
	if hash == nil {
		hash = machine.LLC.Hash()
	} else if hash.Slices() != machine.LLC.Hash().Slices() {
		return nil, fmt.Errorf("cachedirector: profile hash has %d slices, machine has %d",
			hash.Slices(), machine.LLC.Hash().Slices())
	}
	d := &Director{
		machine:   machine,
		hash:      hash,
		cfg:       cfg,
		coreSlice: make([]int, machine.Cores()),
	}
	prefs := interconnect.Preferences(machine.Topo)
	d.coreTier = make([][]int, machine.Cores())
	for c := range d.coreSlice {
		d.coreSlice[c] = prefs[c].Primary
		d.coreTier[c] = append([]int{prefs[c].Primary}, prefs[c].Secondary...)
	}
	return d, nil
}

// InitPool pre-computes the per-core headroom table of every mbuf in the
// pool and stores it in udata64 (the initialization-phase pass of §4.2).
func (d *Director) InitPool(pool *dpdk.Mempool) error {
	budgetLines := d.cfg.MaxHeadroom / 64
	if pool == nil {
		return fmt.Errorf("cachedirector: nil pool")
	}
	var err error
	pool.ForEach(func(m *dpdk.Mbuf) {
		if err != nil {
			return
		}
		if m.HeadroomCapacity() < d.cfg.MaxHeadroom {
			err = fmt.Errorf("%w: pool %q mbufs provision %d B, need %d",
				ErrInsufficientHeadroom, pool.Name(), m.HeadroomCapacity(), d.cfg.MaxHeadroom)
			return
		}
		var packed uint64
		for core := 0; core < len(d.coreSlice); core++ {
			target := d.coreSlice[core]
			if d.cfg.SpreadTier {
				tier := d.coreTier[core]
				target = tier[d.initSeq%len(tier)]
			}
			lines, ok := d.findHeadroom(pool, m, target, budgetLines)
			if !ok {
				d.misses++
				lines = 0
			}
			packed |= uint64(lines) << uint(core*4)
		}
		m.Udata64 = packed
		d.inited++
		d.initSeq++
	})
	return err
}

// findHeadroom searches headrooms 0..budget lines for one that maps the
// target line to the wanted slice.
func (d *Director) findHeadroom(pool *dpdk.Mempool, m *dpdk.Mbuf, slice, budgetLines int) (lines int, ok bool) {
	base := m.DataBaseVA() + uint64(d.cfg.TargetOffset)
	for l := 0; l <= budgetLines; l++ {
		pa := pool.Mapping().Phys(base + uint64(l*64))
		if d.hash.Slice(pa) == slice {
			return l, true
		}
	}
	return 0, false
}

// Prepare is the driver hook (dpdk.MbufPrepareFunc): set the mbuf's actual
// headroom for the core that will consume queue q's packets, and charge
// the (tiny) per-packet driver cost to that core. The effective placement
// level (CurrentLevel) decides how much of the slice-aware machinery runs:
// full applies the table and the driver charge, header-only keeps the
// table but switches in the app-sorted fast path, passthrough bypasses the
// table entirely (the watchdog's legacy degraded placement).
func (d *Director) Prepare(m *dpdk.Mbuf, queue int) {
	lines := int(m.Udata64 >> uint(queue*4) & 0xF)
	d.ctrPrepared.Inc(queue)
	switch d.CurrentLevel() {
	case LevelPassthrough:
		d.ctrBypassed.Inc(queue)
		hr := dpdk.DefaultHeadroom
		if hr > m.HeadroomCapacity() {
			hr = m.HeadroomCapacity()
		}
		_ = m.SetHeadroom(hr)
		// Without a ladder the legacy degraded path still pays the driver
		// charge (the table read happens before the mode check); with one,
		// passthrough is the cheapest rung and pays nothing.
		if d.ladder == nil && !d.cfg.AppSorted {
			d.machine.Core(queue).AddCycles(PrepareCycles)
		}
	case LevelHeaderOnly:
		if err := m.SetHeadroom(lines * 64); err != nil {
			_ = m.SetHeadroom(0)
		}
	default: // LevelFull
		if err := m.SetHeadroom(lines * 64); err != nil {
			// Pre-computed values are always within capacity; reaching this
			// indicates corrupted udata64, so fall back to zero headroom.
			_ = m.SetHeadroom(0)
		}
		if !d.cfg.AppSorted {
			d.machine.Core(queue).AddCycles(PrepareCycles)
		}
	}
	if d.wd != nil && d.wd.due() {
		// Probe the placement the table intended, even while degraded:
		// recovery needs evidence that the believed mapping works again.
		d.probePlacement(m, queue, lines)
	}
}

// Attach initializes all of a port's pools and installs the prepare hook.
// Queue i is assumed to be consumed by core i, DPDK's usual pinning.
func (d *Director) Attach(port *dpdk.Port) error {
	for q := 0; q < port.Queues(); q++ {
		if err := d.InitPool(port.Pool(q)); err != nil {
			return err
		}
	}
	port.SetMbufPrepare(d.Prepare)
	return nil
}

// Stats reports initialization coverage: mbufs initialized and (mbuf,core)
// pairs that missed within the headroom budget.
func (d *Director) Stats() (inited, misses int) { return d.inited, d.misses }

// HeadroomFor reports the pre-computed headroom (bytes) an mbuf would use
// for a core — the quantity whose distribution §4.2 measures.
func (d *Director) HeadroomFor(m *dpdk.Mbuf, core int) int {
	return int(m.Udata64>>uint(core*4)&0xF) * 64
}

// CollectHeadrooms gathers the headroom distribution across a pool for one
// core (the §4.2 campus-trace experiment aggregates this over cores).
func (d *Director) CollectHeadrooms(pool *dpdk.Mempool, core int) []int {
	var out []int
	pool.ForEach(func(m *dpdk.Mbuf) {
		out = append(out, d.HeadroomFor(m, core))
	})
	return out
}
