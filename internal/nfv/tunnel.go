package nfv

import (
	"fmt"

	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
)

// TunnelInspector models the VXLAN/DPI class of NF §4.2 calls out when
// motivating CacheDirector's configurable target: the outer header was
// already matched by NIC hardware, so software skips straight to an inner
// header (or payload signature) at a fixed byte offset. Its hot line is
// NOT the packet's first line — placing the first 64 B helps it not at
// all; CacheDirector must be configured with the matching TargetOffset.
type TunnelInspector struct {
	innerOffset int // byte offset of the inspected 64 B portion
}

const tunnelComputeCycles = 120 // decapsulation arithmetic + signature match

// NewTunnelInspector builds the NF; innerOffset must be line-aligned (the
// inspected portion is one cache line, like an inner Ethernet+IP header).
func NewTunnelInspector(innerOffset int) (*TunnelInspector, error) {
	if innerOffset <= 0 || innerOffset%64 != 0 {
		return nil, fmt.Errorf("nfv: inner offset %d must be a positive line multiple", innerOffset)
	}
	return &TunnelInspector{innerOffset: innerOffset}, nil
}

// Name implements NF.
func (ti *TunnelInspector) Name() string {
	return fmt.Sprintf("TunnelInspector(+%dB)", ti.innerOffset)
}

// Process implements NF: read and rewrite only the inner line — the outer
// header is never touched (hardware classified it).
func (ti *TunnelInspector) Process(core *cpusim.Core, mb *dpdk.Mbuf) bool {
	if mb.PktLen() < ti.innerOffset+64 {
		return false
	}
	inner := mb.DataVA() + uint64(ti.innerOffset)
	core.Read(inner)
	core.AddCycles(tunnelComputeCycles)
	core.Write(inner) // rewrite the inner destination after inspection
	return true
}
