// Package nfv implements the network functions of the evaluation (§5): a
// simple MAC-swap forwarder, an IPv4 router with a real DIR-24-8 longest-
// prefix-match table, NAPT, and a flow-based round-robin load balancer,
// plus the run-to-completion service chain that strings them together
// (Metron-style: one core handles a packet through the whole chain).
//
// Every data structure an NF consults lives at simulated physical
// addresses, and every consultation is priced through the cache hierarchy
// of the core running the chain — that is what makes the slice placement
// of packet headers (CacheDirector) and of state tables visible in the
// end-to-end latency.
package nfv

import (
	"fmt"

	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
)

// NF is one network function in a chain.
type NF interface {
	// Name identifies the NF in chain descriptions.
	Name() string
	// Process runs the NF for one packet on the given core, charging all
	// memory and compute costs to it. It returns false to drop the packet.
	Process(core *cpusim.Core, mb *dpdk.Mbuf) bool
}

// Per-NF compute costs in cycles (besides the memory accesses, which are
// priced by the cache model). These are the instruction-stream costs of
// parsing, arithmetic and branching, calibrated so an 8-core Haswell DuT
// saturates near the paper's ≈76 Gbps ceiling on the campus mix.
const (
	forwardComputeCycles = 60
	routerComputeCycles  = 90
	naptComputeCycles    = 110
	lbComputeCycles      = 70
)

// headerAccess touches the packet's first line — the bytes every NF parses
// and the line CacheDirector places. write additionally dirties it (MAC
// rewrite, TTL decrement, port rewrite...).
func headerAccess(core *cpusim.Core, mb *dpdk.Mbuf, write bool) {
	core.Read(mb.DataVA())
	if write {
		core.Write(mb.DataVA())
	}
}

// Forwarder is the simple forwarding application of §5.1: swap source and
// destination MACs and send the frame back.
type Forwarder struct{}

// NewForwarder returns the MAC-swap NF.
func NewForwarder() *Forwarder { return &Forwarder{} }

// Name implements NF.
func (*Forwarder) Name() string { return "SimpleForwarding" }

// Process implements NF.
func (*Forwarder) Process(core *cpusim.Core, mb *dpdk.Mbuf) bool {
	headerAccess(core, mb, true) // read both MACs, write them swapped
	core.AddCycles(forwardComputeCycles)
	return true
}

// Chain is an ordered NF pipeline run to completion per packet.
type Chain struct {
	name string
	nfs  []NF
}

// NewChain builds a chain.
func NewChain(name string, nfs ...NF) (*Chain, error) {
	if len(nfs) == 0 {
		return nil, fmt.Errorf("nfv: chain %q has no NFs", name)
	}
	return &Chain{name: name, nfs: nfs}, nil
}

// Name returns the chain's description.
func (c *Chain) Name() string { return c.name }

// Process runs the packet through every NF; false if any NF dropped it.
func (c *Chain) Process(core *cpusim.Core, mb *dpdk.Mbuf) bool {
	for _, nf := range c.nfs {
		if !nf.Process(core, mb) {
			return false
		}
	}
	return true
}

// ProcessBatch runs a PMD burst through the chain packet-major: each packet
// runs to completion through every NF before the next packet starts, the
// run-to-completion model of the paper's testbed (and the order the scalar
// per-packet loop produces), so cache state evolves byte-identically to
// calling Process once per mbuf. Returns the number of packets that
// survived the whole chain.
func (c *Chain) ProcessBatch(core *cpusim.Core, ms []*dpdk.Mbuf) int {
	passed := 0
	for _, mb := range ms {
		if c.Process(core, mb) {
			passed++
		}
	}
	return passed
}

// CycleSpan bounds one NF's service for a packet in core cycles. The
// caller (netsim) converts cycles to simulated time; keeping this in
// cycles keeps nfv free of any telemetry dependency.
type CycleSpan struct {
	Name       string
	Start, End uint64
}

// ProcessTraced is Process with per-NF cycle spans appended to *spans —
// used by the flight recorder for sampled packets. The cycle charges are
// identical to Process: reading core.Cycles() is free.
func (c *Chain) ProcessTraced(core *cpusim.Core, mb *dpdk.Mbuf, spans *[]CycleSpan) bool {
	for _, nf := range c.nfs {
		start := core.Cycles()
		ok := nf.Process(core, mb)
		*spans = append(*spans, CycleSpan{Name: nf.Name(), Start: start, End: core.Cycles()})
		if !ok {
			return false
		}
	}
	return true
}
