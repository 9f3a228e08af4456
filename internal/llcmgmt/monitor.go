package llcmgmt

import "sliceaware/internal/llc"

// TenantSample is one tenant's first-touch outcome deltas for one epoch,
// summed over the tenant's cores.
type TenantSample struct {
	FirstTouchHits   uint64
	FirstTouchMisses uint64
}

// Monitor samples the LLC's per-core first-touch statistics into a
// sliding window of per-tenant epoch deltas. It is the controller's only
// sensor: the per-core first-touch attribution turns the socket-wide leak
// into a per-tenant signal.
type Monitor struct {
	reg    *Registry
	window int

	prevTouch [][]llc.FirstTouchStats // per tenant, per owned core
	started   bool

	samples [][]TenantSample // ring of the last `window` epochs, per tenant
}

// NewMonitor builds a monitor keeping a sliding window of `window` epoch
// samples (minimum 1).
func NewMonitor(reg *Registry, window int) *Monitor {
	if window < 1 {
		window = 1
	}
	return &Monitor{reg: reg, window: window}
}

// rebase snapshots per-tenant first-touch baselines.
func (m *Monitor) rebase() {
	m.prevTouch = m.prevTouch[:0]
	for _, t := range m.reg.tenants {
		ft := make([]llc.FirstTouchStats, len(t.cfg.Cores))
		for i, c := range t.cfg.Cores {
			ft[i] = m.reg.machine.LLC.FirstTouch(c)
		}
		m.prevTouch = append(m.prevTouch, ft)
	}
	m.started = true
}

// Sample closes the current epoch: per-tenant first-touch deltas since the
// last call are attributed, the sliding window advances, and the
// baselines rebase. The first call only establishes baselines and returns
// nil.
func (m *Monitor) Sample() []TenantSample {
	if !m.started {
		m.rebase()
		return nil
	}
	s := make([]TenantSample, len(m.reg.tenants))
	for i, t := range m.reg.tenants {
		// Tenants registered after the last rebase have no baseline yet;
		// they join the window next epoch.
		if i >= len(m.prevTouch) {
			continue
		}
		for j, c := range t.cfg.Cores {
			cur := m.reg.machine.LLC.FirstTouch(c)
			s[i].FirstTouchHits += cur.Hits - m.prevTouch[i][j].Hits
			s[i].FirstTouchMisses += cur.Misses - m.prevTouch[i][j].Misses
		}
	}
	m.samples = append(m.samples, s)
	if len(m.samples) > m.window {
		m.samples = m.samples[1:]
	}
	m.rebase()
	return s
}

// LeakPressure reports tenant i's first-touch miss ratio over the retained
// window: misses/(hits+misses) of DMA-filled lines read by the tenant's
// cores. A tenant with no first touches in the window reads 0 — no signal
// means no evidence of damage, so the controller stays calm.
func (m *Monitor) LeakPressure(i int) float64 {
	var hits, misses uint64
	for _, s := range m.samples {
		if i >= len(s) {
			continue
		}
		hits += s[i].FirstTouchHits
		misses += s[i].FirstTouchMisses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}
