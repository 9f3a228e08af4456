package llcmgmt

import (
	"sliceaware/internal/llc"
	"sliceaware/internal/uncore"
)

// TenantSample is one tenant's first-touch outcome deltas for one epoch,
// summed over the tenant's cores.
type TenantSample struct {
	FirstTouchHits   uint64
	FirstTouchMisses uint64
}

// Sample is one monitoring epoch: socket-wide leaky-DMA event deltas from
// the uncore counters plus per-tenant first-touch attribution, stamped
// with the simulated clock.
type Sample struct {
	TimeNs           float64
	DDIOFills        uint64
	EvictUnread      uint64
	MissedFirstTouch uint64
	Tenants          []TenantSample
}

// Monitor samples the uncore's per-slice DDIO counters and the LLC's
// per-core first-touch statistics into a sliding window of epoch deltas.
// It is the controller's only sensor: everything it reads comes from the
// same counters the paper's §2.1 polling methodology uses (programmed via
// uncore.Monitor sessions), plus the per-core first-touch attribution that
// turns the socket-wide leak counters into a per-tenant signal.
type Monitor struct {
	reg    *Registry
	window int

	fills *uncore.Monitor // LLC_DDIO.FILL session
	evict *uncore.Monitor // LLC_DDIO.EVICT_UNREAD session
	miss  *uncore.Monitor // LLC_DDIO.MISS_FIRST_TOUCH session

	prevTouch [][]llc.FirstTouchStats // per tenant, per owned core
	started   bool

	samples []Sample // ring of the last `window` epochs
}

// NewMonitor builds a monitor keeping a sliding window of `window` epoch
// samples (minimum 1).
func NewMonitor(reg *Registry, window int) *Monitor {
	if window < 1 {
		window = 1
	}
	l := reg.machine.LLC
	return &Monitor{
		reg:    reg,
		window: window,
		fills:  uncore.NewMonitor(l),
		evict:  uncore.NewMonitor(l),
		miss:   uncore.NewMonitor(l),
	}
}

// rebase (re)programs the uncore sessions and snapshots per-tenant
// first-touch baselines.
func (m *Monitor) rebase() {
	m.fills.Start(uncore.EventDDIOFills)
	m.evict.Start(uncore.EventDDIOEvictUnread)
	m.miss.Start(uncore.EventDDIOMissedFirstTouch)
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

// Sample closes the current epoch: uncore deltas since the last call are
// folded into one socket-wide sample, per-tenant first-touch deltas are
// attributed, the sliding window advances, and the sessions rebase. The
// first call only establishes baselines and returns a zero sample.
func (m *Monitor) Sample(nowNs float64) Sample {
	if !m.started {
		m.rebase()
		return Sample{TimeNs: nowNs}
	}
	s := Sample{TimeNs: nowNs, Tenants: make([]TenantSample, len(m.reg.tenants))}
	sum := func(mon *uncore.Monitor) uint64 {
		deltas, err := mon.Read()
		if err != nil {
			return 0
		}
		var total uint64
		for _, d := range deltas {
			total += d
		}
		return total
	}
	s.DDIOFills = sum(m.fills)
	s.EvictUnread = sum(m.evict)
	s.MissedFirstTouch = sum(m.miss)
	for i, t := range m.reg.tenants {
		// Tenants registered after the last rebase have no baseline yet;
		// they join the window next epoch.
		if i >= len(m.prevTouch) {
			continue
		}
		for j, c := range t.cfg.Cores {
			cur := m.reg.machine.LLC.FirstTouch(c)
			s.Tenants[i].FirstTouchHits += cur.Hits - m.prevTouch[i][j].Hits
			s.Tenants[i].FirstTouchMisses += cur.Misses - m.prevTouch[i][j].Misses
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
		if i >= len(s.Tenants) {
			continue
		}
		hits += s.Tenants[i].FirstTouchHits
		misses += s.Tenants[i].FirstTouchMisses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}
