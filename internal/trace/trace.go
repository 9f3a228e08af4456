// Package trace synthesizes the packet workloads of the evaluation: the
// campus trace's size mix (26.9 % of frames under 100 B, 11.8 % between
// 100 and 500 B, the rest larger — §5), fixed-size streams like the
// RatedSource 64 B runs of Fig 12, and flow identities for the stateful
// NFs and RSS/FlowDirector steering.
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Ethernet frame size bounds used throughout.
const (
	MinFrame = 64
	MaxFrame = 1500
)

// Packet is one frame of workload: identity for steering/state plus the
// wire size that drives bandwidth and DDIO footprint.
type Packet struct {
	Size    int    // frame size in bytes
	FlowID  uint64 // stable per-flow identifier
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8

	// Priority is the packet's traffic class for overload shedding:
	// 0 = lowest (shed first) up to NumPriorities-1 = highest (shed last).
	// Generators derive it as a pure function of the flow identity
	// (PriorityOf), so adding it drew no extra randomness and left every
	// generator's RNG stream — and therefore every existing figure —
	// untouched.
	Priority uint8

	// Timestamp carries the LoadGen send time in simulated nanoseconds —
	// the "timestamp in the payload" of the black-box method (§5).
	//
	// Contract: generators leave it zero. The netsim LoadGen stamps it at
	// wire arrival (DuT.Arrive's clock), and everything downstream —
	// latency accounting and the telemetry flight recorder's wire_arrival
	// span — reads that single stamp. A generator that pre-filled it
	// would be silently overwritten.
	Timestamp float64
}

// Generator produces packets.
type Generator interface {
	Next() Packet
}

// PriorityOf derives a packet's traffic class from its flow identity: a
// deterministic hash spread so most traffic is low-priority (bulk) and
// each higher class is rarer — roughly 9/16, 4/16, 2/16, 1/16 of flows.
// Being a pure function of FlowID it costs no RNG draw, and all packets
// of a flow share one class (per-flow DSCP marking, as a real classifier
// would produce).
func PriorityOf(flowID uint64) uint8 {
	v := flowID * 0x9e3779b97f4a7c15
	v ^= v >> 33
	switch n := v % 16; {
	case n < 9:
		return 0
	case n < 13:
		return 1
	case n < 15:
		return 2
	default:
		return 3
	}
}

// Flow identity constants for synthetic traffic.
const (
	protoTCP = 6
	protoUDP = 17
)

// CampusMix reproduces the campus trace: sizes drawn from the paper's
// three-bucket distribution, spread over a fixed population of flows with
// a skewed flow-popularity so that steering and per-flow state behave
// realistically.
type CampusMix struct {
	rng   *rand.Rand
	flows []flowIdentity
	// cumulative flow-popularity CDF, same length as flows
	flowCDF []float64
}

type flowIdentity struct {
	srcIP, dstIP     uint32
	srcPort, dstPort uint16
	proto            uint8
}

var _ Generator = (*CampusMix)(nil)

// NewCampusMix builds the generator with the given flow population.
func NewCampusMix(rng *rand.Rand, flows int) (*CampusMix, error) {
	if flows <= 0 {
		return nil, fmt.Errorf("trace: need a positive flow count, got %d", flows)
	}
	g := &CampusMix{rng: rng}
	g.flows = make([]flowIdentity, flows)
	for i := range g.flows {
		proto := uint8(protoTCP)
		if rng.Intn(4) == 0 {
			proto = protoUDP
		}
		g.flows[i] = flowIdentity{
			srcIP:   rng.Uint32(),
			dstIP:   rng.Uint32(),
			srcPort: uint16(1024 + rng.Intn(60000)),
			dstPort: uint16(1 + rng.Intn(1024)),
			proto:   proto,
		}
	}
	// Mildly skewed flow popularity (heavy flows exist, as in any campus
	// trace, but no single flow dominates an 8-queue NIC) via normalized
	// 1/(i+1)^0.5 weights.
	g.flowCDF = make([]float64, flows)
	sum := 0.0
	for i := range g.flowCDF {
		sum += 1 / math.Pow(float64(i+1), 0.5)
		g.flowCDF[i] = sum
	}
	for i := range g.flowCDF {
		g.flowCDF[i] /= sum
	}
	return g, nil
}

// Next implements Generator.
func (g *CampusMix) Next() Packet {
	f := g.pickFlow()
	id := g.flows[f]
	return Packet{
		Size:     g.drawSize(),
		FlowID:   uint64(f),
		SrcIP:    id.srcIP,
		DstIP:    id.dstIP,
		SrcPort:  id.srcPort,
		DstPort:  id.dstPort,
		Proto:    id.proto,
		Priority: PriorityOf(uint64(f)),
	}
}

func (g *CampusMix) pickFlow() int {
	u := g.rng.Float64()
	lo, hi := 0, len(g.flowCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.flowCDF[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// drawSize samples the paper's three-bucket frame-size distribution.
func (g *CampusMix) drawSize() int {
	u := g.rng.Float64()
	switch {
	case u < 0.269: // 26.9 % below 100 B
		return MinFrame + g.rng.Intn(100-MinFrame)
	case u < 0.269+0.118: // 11.8 % in [100, 500)
		return 100 + g.rng.Intn(400)
	default: // the rest in [500, 1500]
		return 500 + g.rng.Intn(MaxFrame-500+1)
	}
}

// FixedSize emits packets of one size over a configurable number of flows,
// modelling FastClick's RatedSource runs (64 B at 1000 pps in Fig 12 and
// the fixed-size rows of Table 2).
type FixedSize struct {
	rng   *rand.Rand
	size  int
	flows int
}

var _ Generator = (*FixedSize)(nil)

// NewFixedSize builds the generator.
func NewFixedSize(rng *rand.Rand, size, flows int) (*FixedSize, error) {
	if size < MinFrame || size > MaxFrame {
		return nil, fmt.Errorf("trace: frame size %d outside [%d,%d]", size, MinFrame, MaxFrame)
	}
	if flows <= 0 {
		return nil, fmt.Errorf("trace: need a positive flow count")
	}
	return &FixedSize{rng: rng, size: size, flows: flows}, nil
}

// Next implements Generator.
func (f *FixedSize) Next() Packet {
	flow := f.rng.Intn(f.flows)
	return Packet{
		Size:     f.size,
		FlowID:   uint64(flow),
		SrcIP:    0x0a000000 | uint32(flow),
		DstIP:    0xc0a80001,
		SrcPort:  uint16(1024 + flow%60000),
		DstPort:  80,
		Proto:    protoTCP,
		Priority: PriorityOf(uint64(flow)),
	}
}
