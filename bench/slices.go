package main

import "sliceaware/internal/stats"

// A slice is a stretch of a workload's measured work with its own clock
// readings: one netsim.RunRate call, one measured window of the closed
// loop, one whole reproduction. A repeat is one or more slices.
//
// Host time on this sandbox is disturbed from outside the process, always
// upwards: back-to-back RunRate calls on one warm DuT take anywhere from 84
// to 160 ms, in runs of slow calls lasting seconds. A mean or median over
// the calls therefore measures how much of the time was disturbed; the
// quartile-best call measures what the code costs when it is left alone,
// which is the part a change to the code moves. So a repeat reports, for
// each metric, the quartile of its slices on the good side, and the metric
// is the median of the repeats. On nfv-chain, whose repeats hold dozens of
// calls, that cut the spread between runs from 7 % to under 2 %; a repeat
// of one slice reports that slice.
type slice struct {
	ops    float64 // operations completed in the slice
	wallS  float64
	cpuS   float64 // user+sys CPU of the process under test
	p50Us  float64 // latency a caller saw inside the slice
	tailUs float64
}

// quietQuartile condenses one repeat's slices into the four host-time
// metrics: the upper quartile of the slices' throughput and the lower
// quartile of their CPU per operation and latencies.
func quietQuartile(slices []slice) (opsPerS, cpuUsPerOp, p50Us, tailUs float64) {
	var ops, cpu, p50, tail []float64
	for _, s := range slices {
		ops = append(ops, ratio(s.ops, s.wallS))
		cpu = append(cpu, ratio(s.cpuS*1e6, s.ops))
		p50 = append(p50, s.p50Us)
		tail = append(tail, s.tailUs)
	}
	return stats.Percentile(ops, 75), stats.Percentile(cpu, 25), stats.Percentile(p50, 25), stats.Percentile(tail, 25)
}

// endToEnd assembles a workload's end-to-end metrics from its repeats.
func endToEnd(repeats [][]slice, setupS []float64) map[string]Summary {
	var ops, cpu, p50, tail []float64
	for _, slices := range repeats {
		o, c, p, t := quietQuartile(slices)
		ops, cpu, p50, tail = append(ops, o), append(cpu, c), append(p50, p), append(tail, t)
	}
	return map[string]Summary{
		"setup_s":       summarize(setupS),
		"ops_per_s":     summarize(ops),
		"cpu_us_per_op": summarize(cpu),
		"lat_p50_us":    summarize(p50),
		"lat_tail_us":   summarize(tail),
	}
}
