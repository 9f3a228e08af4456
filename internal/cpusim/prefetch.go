package cpusim

import "sliceaware/internal/arch"

// Hardware prefetching (§8 of the paper): current Intel L2 prefetchers
// assume contiguous physical layouts — the adjacent-line prefetcher pulls
// a miss's 128 B buddy, and the streamer follows ascending line runs.
// Slice-aware allocations are deliberately non-contiguous, so they defeat
// both; the paper flags this as the price of slice awareness for
// sequential workloads. The model here lets experiments quantify that.
//
// Prefetching is off by default so the calibrated experiment numbers match
// the paper's (whose NFV/KVS access patterns are non-contiguous anyway);
// enable it per machine with EnablePrefetch.

// PrefetchConfig selects which L2 prefetchers run.
type PrefetchConfig struct {
	// AdjacentLine pulls the 128 B buddy of every L2-missing line
	// (Intel's "L2 adjacent cache line prefetcher").
	AdjacentLine bool
	// Streamer detects ascending line runs and prefetches ahead
	// (Intel's "L2 hardware prefetcher").
	Streamer bool
	// StreamDepth is how many lines the streamer runs ahead (default 2).
	StreamDepth int
}

// prefetchState is the per-core detector state.
type prefetchState struct {
	cfg      PrefetchConfig
	lastLine uint64
	streak   int
}

// EnablePrefetch turns hardware prefetching on for every core.
func (m *Machine) EnablePrefetch(cfg PrefetchConfig) {
	if cfg.StreamDepth <= 0 {
		cfg.StreamDepth = 2
	}
	for _, c := range m.cores {
		c.prefetch = &prefetchState{cfg: cfg}
	}
}

// pageLines is the number of lines per 4 kB page; prefetchers never cross
// a page boundary (they work on physical addresses and cannot assume the
// next page is related).
const pageLines = 4096 / 64

// maybePrefetch runs after a demand L2 miss for line. Prefetch fills are
// asynchronous: they update cache state but charge no cycles to the core.
func (c *Core) maybePrefetch(line uint64) {
	p := c.prefetch
	if p == nil {
		return
	}
	var targets []uint64
	if p.cfg.AdjacentLine {
		buddy := line ^ 1
		if samePage(line, buddy) {
			targets = append(targets, buddy)
		}
	}
	if p.cfg.Streamer {
		if line == p.lastLine+1 {
			p.streak++
		} else if line != p.lastLine {
			p.streak = 0
		}
		if p.streak >= 2 {
			for i := 1; i <= p.cfg.StreamDepth; i++ {
				next := line + uint64(i)
				if samePage(line, next) {
					targets = append(targets, next)
				}
			}
		}
	}
	p.lastLine = line

	if len(targets) == 0 {
		return
	}
	// Fill without charging the core: snapshot and restore the TSC (the
	// prefetcher's memory traffic is off the critical path; its cache
	// side effects — including evictions — are not).
	saved := c.tsc
	savedStats := c.stats
	for _, t := range targets {
		if c.l1.Contains(t) || c.l2.Contains(t) {
			continue
		}
		c.stats.Prefetches++
		pfStats := c.stats
		c.fillFromBelow(t)
		c.stats = pfStats
	}
	prefetches := c.stats.Prefetches
	c.stats = savedStats
	c.stats.Prefetches = prefetches
	c.tsc = saved
}

func samePage(a, b uint64) bool { return a/pageLines == b/pageLines }

// fillFromBelow brings a line into L2 from wherever it lives (LLC or
// DRAM), following the machine's inclusion policy, without L1 allocation
// (Intel's L2 prefetchers fill L2/LLC only).
func (c *Core) fillFromBelow(line uint64) {
	pa := line << 6
	hit, _ := c.m.LLC.Lookup(pa, false)
	if hit {
		if c.m.Profile.LLCMode == arch.NonInclusive {
			_, wasDirty := c.m.LLC.Invalidate(pa)
			c.fillL2(line, wasDirty)
			return
		}
		c.fillL2(line, false)
		return
	}
	if c.m.Profile.LLCMode == arch.Inclusive {
		v, _ := c.m.LLC.Insert(pa, false, c.catMask)
		c.m.backInvalidate(v)
	}
	c.fillL2(line, false)
}
