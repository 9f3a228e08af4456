package nfv

import (
	"fmt"

	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/phys"
)

// FlowTable is an open-addressing hash table of per-flow state whose
// buckets live at simulated physical addresses: every probe charges one
// cache-line access to the querying core. It backs both NAPT and the load
// balancer. One bucket = one 64 B line, as in any cache-conscious design.
type FlowTable struct {
	base    uint64
	buckets int

	keys     []uint64 // flow keys; 0 = empty (flow IDs are offset by 1)
	vals     []uint64
	probeCap int
}

// NewFlowTable allocates a table of the given bucket count (power of two).
func NewFlowTable(space *phys.Space, buckets int) (*FlowTable, error) {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		return nil, fmt.Errorf("nfv: flow table buckets must be a positive power of two, got %d", buckets)
	}
	m, err := space.Map(uint64(buckets)*64, phys.PageSize2M)
	if err != nil {
		return nil, fmt.Errorf("nfv: flow table: %w", err)
	}
	return &FlowTable{
		base:     m.VirtBase,
		buckets:  buckets,
		keys:     make([]uint64, buckets),
		vals:     make([]uint64, buckets),
		probeCap: buckets,
	}, nil
}

func (t *FlowTable) slot(key uint64) int {
	h := key + 1
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h & uint64(t.buckets-1))
}

// bucketAddr is the simulated address of bucket i.
func (t *FlowTable) bucketAddr(i int) uint64 { return t.base + uint64(i)*64 }

// Lookup finds the value for key, charging each probed bucket to core
// (nil core skips charging, for tests).
func (t *FlowTable) Lookup(core *cpusim.Core, key uint64) (val uint64, ok bool) {
	k := key + 1
	i := t.slot(key)
	for probes := 0; probes < t.probeCap; probes++ {
		if core != nil {
			core.Read(t.bucketAddr(i))
		}
		switch t.keys[i] {
		case k:
			return t.vals[i], true
		case 0:
			return 0, false
		}
		i = (i + 1) & (t.buckets - 1)
	}
	return 0, false
}

// Insert stores key → val, charging probed buckets to core. It fails when
// the table is full.
func (t *FlowTable) Insert(core *cpusim.Core, key uint64, val uint64) error {
	k := key + 1
	i := t.slot(key)
	for probes := 0; probes < t.probeCap; probes++ {
		if core != nil {
			core.Read(t.bucketAddr(i))
		}
		if t.keys[i] == 0 || t.keys[i] == k {
			t.keys[i] = k
			t.vals[i] = val
			if core != nil {
				core.Write(t.bucketAddr(i))
			}
			return nil
		}
		i = (i + 1) & (t.buckets - 1)
	}
	return fmt.Errorf("nfv: flow table full (%d buckets)", t.buckets)
}

// NAPT performs network address and port translation: the first packet of
// a flow allocates a translation entry; every packet rewrites its header
// from the entry.
type NAPT struct {
	table    *FlowTable
	nextPort uint16
}

// NewNAPT builds the translator with a table sized for the expected flow
// population. The simulator models the header rewrite as one line write,
// so the public address it would write in is not kept.
func NewNAPT(space *phys.Space, buckets int, publicIP uint32) (*NAPT, error) {
	t, err := NewFlowTable(space, buckets)
	if err != nil {
		return nil, err
	}
	return &NAPT{table: t, nextPort: 1024}, nil
}

// Name implements NF.
func (*NAPT) Name() string { return "NAPT" }

// Process implements NF: look up (or create) the flow's translation and
// rewrite the header's addresses and ports.
func (n *NAPT) Process(core *cpusim.Core, mb *dpdk.Mbuf) bool {
	headerAccess(core, mb, false)
	core.AddCycles(naptComputeCycles)
	flow := mb.Pkt.FlowID
	if _, ok := n.table.Lookup(core, flow); !ok {
		port := n.nextPort
		n.nextPort++
		if n.nextPort < 1024 {
			n.nextPort = 1024 // wrapped; ephemeral range only
		}
		if err := n.table.Insert(core, flow, uint64(port)); err != nil {
			return false
		}
	}
	// Rewrite source IP/port from the translation entry.
	core.Write(mb.DataVA())
	return true
}

// LoadBalancer spreads flows over backends with flow-based round-robin
// (§5.2): a flow's first packet picks the next backend; later packets
// stick to it.
type LoadBalancer struct {
	table    *FlowTable
	backends int
	next     int
}

// NewLoadBalancer builds the LB.
func NewLoadBalancer(space *phys.Space, buckets, backends int) (*LoadBalancer, error) {
	if backends <= 0 {
		return nil, fmt.Errorf("nfv: load balancer needs ≥1 backend")
	}
	t, err := NewFlowTable(space, buckets)
	if err != nil {
		return nil, err
	}
	return &LoadBalancer{table: t, backends: backends}, nil
}

// Name implements NF.
func (*LoadBalancer) Name() string { return "LoadBalancer" }

// Process implements NF: pin new flows round-robin, then rewrite the
// destination to the flow's backend.
func (lb *LoadBalancer) Process(core *cpusim.Core, mb *dpdk.Mbuf) bool {
	headerAccess(core, mb, false)
	core.AddCycles(lbComputeCycles)
	flow := mb.Pkt.FlowID
	v, ok := lb.table.Lookup(core, flow)
	if !ok {
		v = uint64(lb.next)
		lb.next = (lb.next + 1) % lb.backends
		if err := lb.table.Insert(core, flow, v); err != nil {
			return false
		}
	}
	core.Write(mb.DataVA())
	return true
}
