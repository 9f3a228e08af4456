package llcmgmt

import (
	"fmt"

	"sliceaware/internal/netsim"
	"sliceaware/internal/trace"
)

// TrafficSpec offers one tenant's load for a platform run.
type TrafficSpec struct {
	Tenant *Tenant
	Gen    trace.Generator
	// OfferedGbps paces arrivals by wire size, capped by the shared NIC
	// ingress model (each tenant has its own port).
	OfferedGbps float64
	// Count is how many packets to offer; 0 offers none (an idle tenant).
	Count int
	// StartNs offsets this spec's first arrival on the simulated clock.
	// Chained Run calls on one setup must start where the previous run
	// ended (its EndNs), or the controller's epoch clock would see time
	// move backwards and stall.
	StartNs float64
}

// TenantResult is one tenant's share of a platform run.
type TenantResult struct {
	LatenciesNs  []float64
	AchievedGbps float64
	// EndNs is the simulated time the tenant's pipeline drained — the
	// StartNs for a follow-up run on the same setup.
	EndNs float64
}

// Run drives every tenant's traffic through the shared machine in one
// merged, deterministic arrival loop: each spec paces its own arrivals by
// wire time, the globally earliest arrival is delivered next (ties break
// toward the lower spec index), and the controller — when non-nil — ticks
// on every arrival so control epochs interleave with the load exactly as
// a management core polling the uncore would. All tenants' packets hit
// the same LLC, so one tenant's DMA pressure is visible in another's
// first-touch behaviour; that cross-tenant coupling is the point.
func Run(specs []TrafficSpec, ctrl *Controller) ([]TenantResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("llcmgmt: run needs at least one traffic spec")
	}
	type state struct {
		next      float64
		remaining int
		firstNs   float64
		lastNs    float64
		latBase   int
		txBase    uint64
	}
	sts := make([]state, len(specs))
	minGapNs := 1e9 / netsim.NICCapPPS
	for i, sp := range specs {
		if sp.Tenant == nil || sp.Tenant.DuT() == nil {
			return nil, fmt.Errorf("llcmgmt: spec %d has no attached net workload", i)
		}
		if sp.Count > 0 && (sp.Gen == nil || sp.OfferedGbps <= 0) {
			return nil, fmt.Errorf("llcmgmt: spec %d offers %d packets but lacks a generator or rate", i, sp.Count)
		}
		st := &sts[i]
		st.next = sp.StartNs
		st.remaining = sp.Count
		st.firstNs = -1
		st.latBase = len(sp.Tenant.DuT().Latencies())
		st.txBase = sp.Tenant.Port().Stats().TxBytes
	}
	for {
		pick := -1
		for i := range sts {
			if sts[i].remaining <= 0 {
				continue
			}
			if pick < 0 || sts[i].next < sts[pick].next {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		sp, st := specs[pick], &sts[pick]
		t := st.next
		pkt := sp.Gen.Next()
		sp.Tenant.DuT().Arrive(pkt, t)
		ctrl.Tick(t)
		if st.firstNs < 0 {
			st.firstNs = t
		}
		st.lastNs = t
		rate := sp.OfferedGbps
		if rate > netsim.NICCapGbps {
			rate = netsim.NICCapGbps
		}
		gap := float64(pkt.Size*8) / rate // Gbps ⇒ bits/ns
		if gap < minGapNs {
			gap = minGapNs
		}
		st.next = t + gap
		st.remaining--
	}
	out := make([]TenantResult, len(specs))
	for i, sp := range specs {
		end := sp.Tenant.DuT().Drain()
		ctrl.Tick(end)
		st := &sts[i]
		res := TenantResult{
			LatenciesNs: sp.Tenant.DuT().Latencies()[st.latBase:],
			EndNs:       end,
		}
		if window := st.lastNs - st.firstNs; window > 0 {
			res.AchievedGbps = float64(sp.Tenant.Port().Stats().TxBytes-st.txBase) * 8 / window
		}
		out[i] = res
	}
	return out, nil
}
