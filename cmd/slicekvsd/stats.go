package main

import (
	"time"

	"sliceaware/internal/obs"
)

// The per-second stats pipeline: every statsTick the loop deltas the
// per-class response counters and latency histograms the request path
// already maintains, streams one KindStats wide event to the sink,
// feeds the same deltas to the SLO burn-rate monitor, and streams any
// alert transitions the monitor reports. Everything is derived from the
// cumulative registry state, so the request hot path pays nothing for
// streaming — the loop is the only reader doing delta math.

// classCursor tracks one class's counters between ticks.
type classCursor struct {
	outcomes map[string]uint64
	lat      obs.HistCursor
}

// statsLoop runs until loopStop closes. It is the single owner of the
// cursors and the SLO monitor.
func (s *server) statsLoop() {
	defer s.loops.Done()
	tick := s.cfg.statsTick
	if tick <= 0 {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()

	cursors := make([]classCursor, s.cfg.classes)
	for c := range cursors {
		cursors[c].outcomes = map[string]uint64{}
	}

	for {
		select {
		case <-s.loopStop:
			return
		case <-t.C:
			s.statsTickOnce(cursors, tick)
		}
	}
}

// statsTickOnce computes one tick: deltas, sink event, monitor feed.
func (s *server) statsTickOnce(cursors []classCursor, tick time.Duration) {
	ev := obs.WideEvent{Kind: obs.KindStats, Num: map[string]float64{
		"state":            float64(s.lc.State()),
		"ladder_level":     float64(s.ladderLevel.Load()),
		"shards_down":      float64(s.sup.Down()),
		"open_connections": float64(s.openConns.Load()),
	}}
	ticks := make([]obs.ClassTick, 0, s.cfg.classes)
	for c := 0; c < s.cfg.classes; c++ {
		cur := &cursors[c]
		pt := obs.ClassPoint{Class: c}
		var total, errs uint64
		causes := map[string]uint64{}
		for _, o := range outcomes {
			v := s.ctrResp[c][o].Value()
			d := v - cur.outcomes[o]
			cur.outcomes[o] = v
			if d == 0 {
				continue
			}
			total += d
			switch o {
			case "ok":
				pt.OK = d
			case "timeout":
				pt.Timeouts = d
				errs += d
				causes[o] = d
			default:
				// Every refusal — shed, inbox_full, aqm, degraded, breaker,
				// draining, injected, dropped_silent, error — burns
				// availability budget; that is the point of the SLO.
				pt.Refused += d
				errs += d
				causes[o] = d
			}
		}
		counts, _, _ := s.histLat[c].Merged()
		delta, okCount := cur.lat.Delta(counts)

		ticks = append(ticks, obs.ClassTick{
			Class: c, Total: total, Errors: errs,
			OKCount: okCount, Bounds: s.latBounds, OKBuckets: delta,
		})
		if total == 0 {
			continue // quiet class: keep the event small
		}
		pt.RPS = float64(total) / tick.Seconds()
		pt.P50Ns = obs.QuantileFromBuckets(s.latBounds, delta, 0.5)
		pt.P99Ns = obs.QuantileFromBuckets(s.latBounds, delta, 0.99)
		if len(causes) > 0 {
			pt.Causes = causes
		}
		ev.Classes = append(ev.Classes, pt)
	}

	for _, a := range s.monitor.Tick(ticks) {
		a := a
		s.logf("slicekvsd: SLO %s: %s[class %d] fast=%.1f slow=%.1f (threshold %.1f)",
			a.State, a.SLO, a.Class, a.FastBurn, a.SlowBurn, a.Threshold)
		s.sink.Send(obs.WideEvent{Kind: obs.KindAlert, Alert: &a})
	}
	s.sink.Send(ev)
}
