package experiments

import (
	"fmt"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/llcmgmt"
	"sliceaware/internal/netsim"
	"sliceaware/internal/nfv"
	"sliceaware/internal/overload"
	"sliceaware/internal/trace"
)

// F-TENANT tunables. The experiment runs on a deliberately scaled-down
// Haswell so the leaky-DMA time constants land inside a few-millisecond
// simulated run: the DDIO region of the full-size part (32 K lines) takes
// hundreds of microseconds to churn even at line rate, safely above any
// queueing delay. Shrinking each slice to 16 sets puts the three time
// constants in the order the IOCA/A4 papers measure on real
// multi-hundred-gigabit hosts:
//
//	shared-DDIO churn under hog fire (≈5 µs)
//	  <  victim sojourn once its queues build (≈10-30 µs)
//	  <  victim-only churn of its isolated I/O ways (≈30 µs)
//
// so a co-located hog leaks a large fraction of the victim's in-flight RX
// lines (first inequality), while a fenced victim never leaks its own
// (second). Two details of the churn dynamics matter. The hog's effective
// fill rate is its *delivered* rate, not its offered rate: a tail-dropped
// packet's mbuf goes straight back to the LIFO free list, so the next
// arrival re-DMAs the same lines and refreshes residency instead of
// churning — overdriving the hog past its capacity adds pressure only
// until its rings saturate. And the victim's leak is loudest at *onset*:
// as its queues first build past the churn time the first-touch miss
// ratio spikes (≈0.15-0.20 for a few epochs), then the saturated steady
// state self-organizes into rare ring-full excursions whose misses are
// diluted below a few percent. EscalateFrac therefore sits between the
// steady-state noise floor (≈0.03) and the onset band, not above it.
const (
	tenantVictimLoad      = 0.9  // victim offered load as a fraction of its solo capacity
	tenantVictimFrameSize = 256  // victim frames: 4 lines each, small DMA footprint
	tenantHogFrameSize    = 1500 // hog frames: full-MTU maximizes DMA bytes per packet
	tenantEpochNs         = 20_000
	tenantEscalateFrac    = 0.10
	tenantRecoverFrac     = 0.02
	// tenantVictimRing keeps the victim's RX rings short: the ring bounds
	// how many unread lines the victim can have in flight, and the escape
	// from a leak-inflated saturated queue requires that even a full
	// ring's sojourn stays under the isolated I/O way's churn time.
	tenantVictimRing = 32
)

// tenantProfile is the scaled-down Haswell: same core/slice topology and
// base latencies, but 16-set LLC slices (20 KB), four DDIO ways, and a
// DRAM latency at the loaded end.
func tenantProfile() *arch.Profile {
	p := arch.HaswellE52667v3()
	p.Name = "Haswell (scaled-down LLC, tenancy study)"
	p.LLCSlice = arch.CacheGeometry{SizeBytes: 20 << 10, Ways: 20, LineSize: 64}
	p.L2 = arch.CacheGeometry{SizeBytes: 32 << 10, Ways: 8, LineSize: 64}
	p.DDIOWays = 4
	// A loaded memory controller, not an idle-latency one: leaked RX lines
	// re-fetch against the hog's own DRAM traffic, so the miss penalty sits
	// near the queueing-bound end. This is what makes leaked first touches
	// expensive enough that the service-time inflation feeds back.
	p.DRAMLatency = 600
	return p
}

// FigTenantPoint is one configuration of the multi-tenant sweep.
type FigTenantPoint struct {
	Label           string
	ControllerOn    bool
	HogFactor       float64
	VictimP99Us     float64
	RatioVsSolo     float64
	VictimMissPct   float64 // victim first-touch miss share over the run
	HogAchievedGbps float64
	EvictUnread     uint64
	MissedFirst     uint64
	Level           int
	Stats           llcmgmt.ControllerStats
	Decisions       []llcmgmt.Decision
}

// tenantSetup is one freshly built two-tenant machine.
type tenantSetup struct {
	reg    *llcmgmt.Registry
	victim *llcmgmt.Tenant
	hog    *llcmgmt.Tenant
	ctrl   *llcmgmt.Controller
}

// buildTenantCase assembles the shared machine: a latency-critical victim
// (cores 0-1, payload-scanning DPI) and a bulk hog (cores 2-5, MAC-swap
// forwarding), each with its own port but one LLC between them. The
// victim's registered DDIO budget is 3 of the 4 I/O ways: isolation must
// leave it enough fenced slots that even a full RX ring's worth of
// in-flight lines outlives its own churn (the escape condition above).
// recoverAfter sizes the ladder's release hysteresis in epochs; the sweep
// sets it longer than the run so a sustained hog can never induce a
// release-reisolate cycle within one point.
func buildTenantCase(env Env, withController bool, recoverAfter int) (*tenantSetup, error) {
	m, err := cpusim.NewMachine(tenantProfile())
	if err != nil {
		return nil, err
	}
	reg, err := llcmgmt.NewRegistry(m, env.Telemetry)
	if err != nil {
		return nil, err
	}
	victim, err := reg.Register(llcmgmt.TenantConfig{
		Name: "victim", Class: llcmgmt.LatencyCritical, Cores: []int{0, 1}, DDIOWays: 3,
	})
	if err != nil {
		return nil, err
	}
	hog, err := reg.Register(llcmgmt.TenantConfig{
		Name: "hog", Class: llcmgmt.Bulk, Cores: []int{2, 3, 4, 5}, DDIOWays: 1,
	})
	if err != nil {
		return nil, err
	}
	scan, err := nfv.NewChain("dpi", nfv.NewPayloadScanner())
	if err != nil {
		return nil, err
	}
	fwd, err := nfv.NewChain("fwd", nfv.NewForwarder())
	if err != nil {
		return nil, err
	}
	if _, err := reg.AttachNet(victim, llcmgmt.NetWorkloadConfig{
		Chain: scan, RingSize: tenantVictimRing, PoolMbufs: 2048, Steering: dpdk.RSS,
	}); err != nil {
		return nil, err
	}
	if _, err := reg.AttachNet(hog, llcmgmt.NetWorkloadConfig{
		Chain: fwd, RingSize: 256, PoolMbufs: 2048, Steering: dpdk.RSS,
	}); err != nil {
		return nil, err
	}
	ctrl, err := llcmgmt.NewController(reg, llcmgmt.ControllerConfig{
		EpochNs: tenantEpochNs,
		Ladder: overload.LadderConfig{
			EscalateFrac: tenantEscalateFrac, RecoverFrac: tenantRecoverFrac,
			EscalateAfter: 2, RecoverAfter: recoverAfter,
		},
		ProbationEpochs: 8,
	})
	if err != nil {
		return nil, err
	}
	if withController {
		ctrl.Arm()
	}
	return &tenantSetup{reg: reg, victim: victim, hog: hog, ctrl: ctrl}, nil
}

// tenantCapacity measures one role's solo capacity by overdriving a fresh
// machine at the NIC ingress cap and taking the achieved rate.
func tenantCapacity(env Env, victimRole bool, gen trace.Generator, count int) (float64, error) {
	s, err := buildTenantCase(env, false, 1<<20)
	if err != nil {
		return 0, err
	}
	t := s.victim
	if !victimRole {
		t = s.hog
	}
	res, err := llcmgmt.Run([]llcmgmt.TrafficSpec{
		{Tenant: t, Gen: gen, OfferedGbps: netsim.NICCapGbps, Count: count},
	}, nil)
	if err != nil {
		return 0, err
	}
	return res[0].AchievedGbps, nil
}

// tenantRun carries the calibrated sweep parameters shared by every point.
type tenantRun struct {
	env          Env
	victimCount  int
	victimCap    float64 // Gbps, solo
	hogCap       float64 // Gbps, solo
	victimRate   float64 // Gbps offered to the victim
	durationNs   float64 // exact on-wire duration of the victim's batch
	recoverAfter int     // ladder release hysteresis, epochs
}

// tenantCalibrate measures both roles' solo capacities and fixes the sweep
// timing. Fixed frame sizes make the on-wire duration of the sweep run
// exact, which sizes both the hog's co-terminating packet budget and the
// release hysteresis. The victim's queueing variance comes from RSS: 4096
// flows hash onto two queues, so each queue sees a stochastic arrival
// stream even under constant-rate pacing.
func tenantCalibrate(env Env) (*tenantRun, error) {
	r := &tenantRun{env: env, victimCount: env.Scale.pick(6000, 20000)}
	victimBits := float64(r.victimCount * tenantVictimFrameSize * 8)

	// The two solo-capacity measurements run on independent fresh machines
	// with their own rng streams, so they make a two-trial fan-out.
	caps, err := runTrials(env, 2, func(trial int) (float64, error) {
		if trial == 0 {
			calV, err := trace.NewFixedSize(env.rng(97), tenantVictimFrameSize, 4096)
			if err != nil {
				return 0, err
			}
			return tenantCapacity(env, true, calV, r.victimCount)
		}
		calH, err := trace.NewFixedSize(env.rng(99), tenantHogFrameSize, 4096)
		if err != nil {
			return 0, err
		}
		return tenantCapacity(env, false, calH, r.victimCount)
	})
	if err != nil {
		return nil, err
	}
	r.victimCap, r.hogCap = caps[0], caps[1]

	r.victimRate = tenantVictimLoad * r.victimCap
	r.durationNs = victimBits / r.victimRate
	mainEpochs := int(r.durationNs/tenantEpochNs) + 1
	r.recoverAfter = mainEpochs + 50
	return r, nil
}

// runPoint runs one sweep configuration on a fresh machine and reports the
// victim's steady-state tail, the leak counters, and the controller's
// activity, plus the setup and its end-of-run clock so the recovery phase
// can keep driving the same machine.
func (r *tenantRun) runPoint(on bool, factor float64) (FigTenantPoint, *tenantSetup, float64, error) {
	s, err := buildTenantCase(r.env, on, r.recoverAfter)
	if err != nil {
		return FigTenantPoint{}, nil, 0, err
	}
	genV, err := trace.NewFixedSize(r.env.rng(95), tenantVictimFrameSize, 4096)
	if err != nil {
		return FigTenantPoint{}, nil, 0, err
	}
	specs := []llcmgmt.TrafficSpec{
		{Tenant: s.victim, Gen: genV, OfferedGbps: r.victimRate, Count: r.victimCount},
	}
	hogRate := factor * r.hogCap
	if hogRate > netsim.NICCapGbps {
		hogRate = netsim.NICCapGbps
	}
	if factor > 0 {
		genH, err := trace.NewFixedSize(r.env.rng(96), tenantHogFrameSize, 4096)
		if err != nil {
			return FigTenantPoint{}, nil, 0, err
		}
		hogCount := int(r.durationNs * hogRate / (tenantHogFrameSize * 8))
		specs = append(specs, llcmgmt.TrafficSpec{
			Tenant: s.hog, Gen: genH, OfferedGbps: hogRate, Count: hogCount,
		})
	}
	res, err := llcmgmt.Run(specs, s.ctrl)
	if err != nil {
		return FigTenantPoint{}, nil, 0, err
	}
	label := "controller off"
	if on {
		label = "controller on"
	}
	p := FigTenantPoint{
		Label:        label,
		ControllerOn: on,
		HogFactor:    factor,
		VictimP99Us:  steadyP99Us(res[0].LatenciesNs),
		Level:        s.ctrl.Level(),
		Stats:        s.ctrl.Stats(),
		Decisions:    s.ctrl.Decisions(),
	}
	if len(res) > 1 {
		p.HogAchievedGbps = res[1].AchievedGbps
	}
	l := s.reg.Machine().LLC
	var hits, misses uint64
	for _, c := range s.victim.Cores() {
		ft := l.FirstTouch(c)
		hits += ft.Hits
		misses += ft.Misses
	}
	if hits+misses > 0 {
		p.VictimMissPct = float64(misses) / float64(hits+misses) * 100
	}
	for sl := 0; sl < l.Slices(); sl++ {
		ev := l.Events(sl)
		p.EvictUnread += ev.DDIOEvictUnread
		p.MissedFirst += ev.DDIOMissedFirstTouch
	}
	return p, s, res[0].EndNs, nil
}

// FigTenantSingle runs one configuration of the multi-tenant study — the
// solo baseline plus the requested point — and returns both. cmd/isobench
// uses it for one-shot runs without the full sweep.
func FigTenantSingle(env Env, controllerOn bool, hogFactor float64) (solo, point FigTenantPoint, err error) {
	r, err := tenantCalibrate(env)
	if err != nil {
		return FigTenantPoint{}, FigTenantPoint{}, err
	}
	// The baseline and the requested point are independent machines.
	ps, err := runTrials(env, 2, func(trial int) (FigTenantPoint, error) {
		if trial == 0 {
			p, _, _, err := r.runPoint(false, 0)
			return p, err
		}
		p, _, _, err := r.runPoint(controllerOn, hogFactor)
		return p, err
	})
	if err != nil {
		return FigTenantPoint{}, FigTenantPoint{}, err
	}
	solo, point = ps[0], ps[1]
	solo.RatioVsSolo = 1
	if solo.VictimP99Us > 0 {
		point.RatioVsSolo = point.VictimP99Us / solo.VictimP99Us
	}
	return solo, point, nil
}

// FigTenant is the F-TENANT experiment: a latency-critical DPI tenant and
// a bulk forwarding tenant share one socket; the hog's offered load is
// swept past its own capacity with the isolation controller off, then on.
// With the controller off the hog's DMA fills churn the shared DDIO ways
// faster than the victim drains its RX rings, so the victim's first-touch
// reads leak to DRAM and its service times inflate — the leaky-DMA
// positive feedback. With the controller on, the monitor's per-tenant
// first-touch signal trips the ladder, the hog is fenced into its own I/O
// way and CAT chunk in one reallocation, and the victim's tail recovers.
// A final row stops the hog and keeps the victim running until the
// controller walks the isolation back out.
func FigTenant(env Env) ([]FigTenantPoint, *Table, error) {
	r, err := tenantCalibrate(env)
	if err != nil {
		return nil, nil, err
	}
	victimCap, hogCap := r.victimCap, r.hogCap
	victimRate, victimCount := r.victimRate, r.victimCount
	runPoint := r.runPoint

	// The eight sweep points each build a fresh machine from fixed rng
	// streams, so they fan out as trials; vs-solo ratios are filled in
	// afterwards from the collected (trial-ordered) results, exactly as the
	// sequential loop computed them.
	type sweepPoint struct {
		p     FigTenantPoint
		s     *tenantSetup
		endNs float64
	}
	factors := []float64{0, 1, 2, 3}
	sweep, err := runTrials(env, 2*len(factors), func(trial int) (sweepPoint, error) {
		on := trial >= len(factors)
		p, s, endNs, err := runPoint(on, factors[trial%len(factors)])
		return sweepPoint{p, s, endNs}, err
	})
	if err != nil {
		return nil, nil, err
	}
	soloP99 := sweep[0].p.VictimP99Us
	var out []FigTenantPoint
	for _, sp := range sweep {
		sp.p.RatioVsSolo = sp.p.VictimP99Us / soloP99
		out = append(out, sp.p)
	}
	// The deepest controller-on point seeds the recovery phase below.
	recoverySetup := sweep[len(sweep)-1].s
	recoveryClock := sweep[len(sweep)-1].endNs

	// Recovery: the hog goes quiet on the deepest controller-on point and
	// the victim keeps serving on the same setup (the clock continues from
	// the sweep run); once the calm outlasts the release hysteresis the
	// controller hands the socket back in one reallocation, then one more
	// batch measures the victim's post-release tail.
	genR, err := trace.NewFixedSize(env.rng(98), tenantVictimFrameSize, 4096)
	if err != nil {
		return nil, nil, err
	}
	var lastBatch []float64
	for batch := 0; batch < 8; batch++ {
		released := recoverySetup.ctrl.Stats().Releases > 0
		res, err := llcmgmt.Run([]llcmgmt.TrafficSpec{
			{Tenant: recoverySetup.victim, Gen: genR, OfferedGbps: victimRate,
				Count: victimCount / 2, StartNs: recoveryClock},
		}, recoverySetup.ctrl)
		if err != nil {
			return nil, nil, err
		}
		recoveryClock = res[0].EndNs
		lastBatch = res[0].LatenciesNs
		if released {
			break
		}
	}
	rp := FigTenantPoint{
		Label:        "controller on, hog stops",
		ControllerOn: true,
		HogFactor:    0,
		Level:        recoverySetup.ctrl.Level(),
		Stats:        recoverySetup.ctrl.Stats(),
		Decisions:    recoverySetup.ctrl.Decisions(),
	}
	if len(lastBatch) > 0 {
		rp.VictimP99Us = steadyP99Us(lastBatch)
		rp.RatioVsSolo = rp.VictimP99Us / soloP99
	}
	out = append(out, rp)

	t := &Table{
		ID: "F-TENANT",
		Title: fmt.Sprintf("Multi-tenant leaky DMA: DPI victim (%.1f Gbps cap) vs forwarding hog (%.1f Gbps cap) on one scaled-down socket",
			victimCap, hogCap),
		Header: []string{
			"Plan", "hog load", "victim p99 (µs, steady)", "vs solo", "victim ft-miss",
			"hog achieved (Gbps)", "evict-unread", "missed-1st-touch", "realloc (i/r/s)", "level",
		},
	}
	for _, p := range out {
		ratio := "-"
		if p.RatioVsSolo > 0 {
			ratio = fmt.Sprintf("%.2fx", p.RatioVsSolo)
		}
		p99 := "-"
		if p.VictimP99Us > 0 {
			p99 = f1(p.VictimP99Us)
		}
		t.Rows = append(t.Rows, []string{
			p.Label, fmt.Sprintf("%.0fx", p.HogFactor), p99, ratio,
			fmt.Sprintf("%.1f%%", p.VictimMissPct), f1(p.HogAchievedGbps),
			fmt.Sprintf("%d", p.EvictUnread), fmt.Sprintf("%d", p.MissedFirst),
			fmt.Sprintf("%d/%d/%d", p.Stats.Isolations, p.Stats.Releases, p.Stats.SuppressedReleases),
			fmt.Sprintf("%d", p.Level),
		})
	}
	t.Notes = append(t.Notes,
		"the hog never reads its payloads, so its DMA fills churn the shared DDIO ways and evict the victim's unread RX lines; the victim's first-touch misses inflate its DPI service times — the leaky-DMA positive feedback",
		"the controller's pressure signal is the latency-critical tenant's windowed first-touch miss ratio; isolation fences the hog's port into its own I/O way and splits the non-DDIO ways with CAT in a single reallocation",
		"release hysteresis outlasts the run, so a sustained hog causes exactly one isolation and zero releases per point; the final row shows the release after the hog goes quiet",
	)
	return out, t, nil
}
