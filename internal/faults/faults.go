// Package faults is the deterministic fault-injection layer of the
// simulated pipeline. A Plan is a seeded set of timed/probabilistic fault
// events; an Injector evaluates the plan at well-defined injection points
// threaded through dpdk (NIC drop/corruption, burst truncation, ring and
// mempool pressure), netsim (per-core slowdown) and kvs (contended
// migrations). CacheDirector's wrong-profile misprediction is modelled by
// MispredictedHash, a pure slice-hash wrapper.
//
// Determinism is the design constraint: the simulated machine is
// single-threaded, every injection point draws from one per-run
// *rand.Rand, and window positions are counted in per-kind opportunities,
// so the same Plan (seed + events) against the same workload reproduces
// byte-identical results — which is what makes chaos runs regression-
// testable.
package faults

import (
	"errors"
	"fmt"
	"math/rand"

	"sliceaware/internal/chash"
)

// ErrInjected is the sentinel all fault-caused failures wrap, so callers
// can errors.Is a failure back to the injection layer.
var ErrInjected = errors.New("faults: injected failure")

// Kind enumerates the injection points.
type Kind int

const (
	// NICDrop loses the packet before DMA (wire/PHY loss).
	NICDrop Kind = iota
	// NICCorrupt flips bytes in flight; the NIC's FCS check rejects the
	// frame at RX, so the packet is dropped and counted separately.
	NICCorrupt
	// BurstTruncate shortens a PMD RX burst (PCIe read stall), degrading
	// batching efficiency without losing packets.
	BurstTruncate
	// RingOverflow makes the RX descriptor ring behave as full for one
	// enqueue — backpressure from a stalled consumer.
	RingOverflow
	// MempoolExhausted fails one mbuf allocation — another consumer
	// transiently holding the pool's headroom.
	MempoolExhausted
	// CoreSlowdown stretches a core's per-packet service time by the
	// event's Magnitude — co-runner interference or frequency throttling.
	CoreSlowdown
	// MigrationContention fails one kvs value move, forcing the bounded
	// retry path.
	MigrationContention

	numKinds
)

func (k Kind) String() string {
	switch k {
	case NICDrop:
		return "nic-drop"
	case NICCorrupt:
		return "nic-corrupt"
	case BurstTruncate:
		return "burst-truncate"
	case RingOverflow:
		return "ring-overflow"
	case MempoolExhausted:
		return "mempool-exhausted"
	case CoreSlowdown:
		return "core-slowdown"
	case MigrationContention:
		return "migration-contention"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one fault source in a Plan. An event is active while the
// per-kind opportunity counter (packets seen, allocations attempted, ...)
// is inside [From, To); while active it triggers with Probability per
// opportunity.
type Event struct {
	Kind        Kind
	Probability float64 // per-opportunity trigger chance in [0,1]
	// Magnitude is kind-specific: CoreSlowdown = service-time multiplier
	// (>1); BurstTruncate = fraction of the burst kept (0,1]. Other kinds
	// ignore it.
	Magnitude float64
	// Core restricts CoreSlowdown to one core; -1 (or any negative) hits
	// every core. Other kinds ignore it.
	Core int
	// From/To bound the active window in per-kind opportunities
	// (inclusive/exclusive). To == 0 means open-ended.
	From, To uint64
}

// active reports whether the event applies at opportunity op.
func (e Event) active(op uint64) bool {
	return op >= e.From && (e.To == 0 || op < e.To)
}

// Plan is a reproducible fault schedule: all randomness derives from Seed.
type Plan struct {
	Seed   int64
	Events []Event
}

// Validate rejects malformed plans before a run starts.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		if e.Kind < 0 || e.Kind >= numKinds {
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(e.Kind))
		}
		if e.Probability < 0 || e.Probability > 1 {
			return fmt.Errorf("faults: event %d (%s): probability %v outside [0,1]", i, e.Kind, e.Probability)
		}
		if e.To != 0 && e.To <= e.From {
			return fmt.Errorf("faults: event %d (%s): window [%d,%d) is empty", i, e.Kind, e.From, e.To)
		}
		switch e.Kind {
		case CoreSlowdown:
			if e.Magnitude < 1 {
				return fmt.Errorf("faults: event %d (%s): slowdown magnitude %v must be ≥1", i, e.Kind, e.Magnitude)
			}
		case BurstTruncate:
			if e.Magnitude <= 0 || e.Magnitude > 1 {
				return fmt.Errorf("faults: event %d (%s): keep fraction %v outside (0,1]", i, e.Kind, e.Magnitude)
			}
		}
	}
	return nil
}

// Counts aggregates triggered faults per kind — part of a run's Result, so
// determinism is checkable end to end.
type Counts struct {
	NICDrops        uint64
	NICCorrupts     uint64
	TruncatedBursts uint64
	RingOverflows   uint64
	MempoolFails    uint64
	SlowedPackets   uint64
	ContendedMoves  uint64
}

// Total sums all triggered faults.
func (c Counts) Total() uint64 {
	return c.NICDrops + c.NICCorrupts + c.TruncatedBursts + c.RingOverflows +
		c.MempoolFails + c.SlowedPackets + c.ContendedMoves
}

// Injector evaluates a Plan at the pipeline's injection points. A nil
// *Injector is valid everywhere and injects nothing, so components thread
// it through unconditionally. Not safe for concurrent use — the simulated
// machine is single-threaded by design.
type Injector struct {
	rng    *rand.Rand
	events []Event
	ops    [numKinds]uint64
	counts Counts
}

// NewInjector builds an injector for the plan.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		rng:    rand.New(rand.NewSource(p.Seed)),
		events: append([]Event(nil), p.Events...),
	}, nil
}

// MustNewInjector is NewInjector for plans known valid at compile time.
func MustNewInjector(p Plan) *Injector {
	i, err := NewInjector(p)
	if err != nil {
		panic(err)
	}
	return i
}

// Fire advances kind k's opportunity counter and reports whether any
// active event of that kind triggered. Nil-safe.
func (i *Injector) Fire(k Kind) bool {
	if i == nil {
		return false
	}
	op := i.ops[k]
	i.ops[k]++
	fired := false
	for _, e := range i.events {
		if e.Kind == k && e.active(op) && i.flip(e.Probability) {
			fired = true
		}
	}
	if fired {
		i.count(k)
	}
	return fired
}

// flip draws one Bernoulli sample. Certain and impossible events skip the
// RNG so adding them does not shift the random stream.
func (i *Injector) flip(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return i.rng.Float64() < p
}

func (i *Injector) count(k Kind) {
	switch k {
	case NICDrop:
		i.counts.NICDrops++
	case NICCorrupt:
		i.counts.NICCorrupts++
	case BurstTruncate:
		i.counts.TruncatedBursts++
	case RingOverflow:
		i.counts.RingOverflows++
	case MempoolExhausted:
		i.counts.MempoolFails++
	case CoreSlowdown:
		i.counts.SlowedPackets++
	case MigrationContention:
		i.counts.ContendedMoves++
	}
}

// TruncateBurst applies BurstTruncate events to a burst of n packets and
// returns the (possibly shorter, ≥1) burst to poll. Nil-safe.
func (i *Injector) TruncateBurst(n int) int {
	if i == nil || n <= 1 {
		if i != nil {
			i.ops[BurstTruncate]++
		}
		return n
	}
	op := i.ops[BurstTruncate]
	i.ops[BurstTruncate]++
	out := n
	fired := false
	for _, e := range i.events {
		if e.Kind == BurstTruncate && e.active(op) && i.flip(e.Probability) {
			fired = true
			if kept := int(float64(n) * e.Magnitude); kept < out {
				out = kept
			}
		}
	}
	if !fired {
		return n
	}
	if out < 1 {
		out = 1
	}
	i.counts.TruncatedBursts++
	return out
}

// ServiceScale returns the service-time multiplier for one packet on the
// given core (1 when no slowdown applies) and advances the CoreSlowdown
// opportunity counter. Overlapping events compound. Nil-safe.
func (i *Injector) ServiceScale(core int) float64 {
	if i == nil {
		return 1
	}
	op := i.ops[CoreSlowdown]
	i.ops[CoreSlowdown]++
	scale := 1.0
	for _, e := range i.events {
		if e.Kind == CoreSlowdown && (e.Core < 0 || e.Core == core) && e.active(op) && i.flip(e.Probability) {
			scale *= e.Magnitude
		}
	}
	if scale != 1 {
		i.counts.SlowedPackets++
	}
	return scale
}

// Counts returns a copy of the triggered-fault counters. Nil-safe.
func (i *Injector) Counts() Counts {
	if i == nil {
		return Counts{}
	}
	return i.counts
}

// Opportunities reports how many injection opportunities kind k has seen.
func (i *Injector) Opportunities(k Kind) uint64 {
	if i == nil {
		return 0
	}
	return i.ops[k]
}

// MispredictedHash wraps a slice hash and deterministically remaps a
// fraction of lines to the next slice — the mapping software believes when
// it deploys a hash profile recovered on different silicon (wrong SKU,
// microcode revision, or a partially-verified reverse-engineering run).
// It stays a pure function of the address, as the chash.Hash contract
// requires, so placement decisions are reproducible.
type MispredictedHash struct {
	inner chash.Hash
	seed  uint64
	rate  float64
}

var _ chash.Hash = (*MispredictedHash)(nil)

// NewMispredictedHash wraps inner, mispredicting about rate of all lines.
func NewMispredictedHash(inner chash.Hash, seed int64, rate float64) (*MispredictedHash, error) {
	if inner == nil {
		return nil, fmt.Errorf("faults: nil inner hash")
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("faults: mispredict rate %v outside [0,1]", rate)
	}
	return &MispredictedHash{inner: inner, seed: uint64(seed), rate: rate}, nil
}

// SetRate changes the misprediction rate — scenario control for recovery
// runs (the operator loads the correct profile; the watchdog should notice
// and re-enable slice-aware placement).
func (h *MispredictedHash) SetRate(rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("faults: mispredict rate %v outside [0,1]", rate)
	}
	h.rate = rate
	return nil
}

// Slice implements chash.Hash.
func (h *MispredictedHash) Slice(pa uint64) int {
	s := h.inner.Slice(pa)
	if h.rate <= 0 {
		return s
	}
	// Line-keyed splitmix finisher: deterministic per line, uniform in
	// [0,1), independent of the inner hash's structure.
	x := (pa >> 6) ^ h.seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if float64(x>>11)/(1<<53) < h.rate {
		return (s + 1) % h.inner.Slices()
	}
	return s
}

// Slices implements chash.Hash.
func (h *MispredictedHash) Slices() int { return h.inner.Slices() }
