// Package repro benchmarks regenerate every table and figure of the
// paper's evaluation (one benchmark per artifact) plus the design-choice
// ablations. They report the headline quantity of each experiment as a
// custom metric, so `go test -bench=. -benchmem` doubles as the full
// reproduction harness:
//
//	go test -bench=Figure -benchtime=1x     # all figures, one pass each
//	go test -bench=Ablation -benchtime=1x   # the DESIGN.md §5 ablations
package repro

import (
	"testing"

	"sliceaware/internal/experiments"
)

// benchEnv keeps benchmark iterations at test-friendly sample counts on
// reproduce's default seed and one worker; cmd/reproduce -scale full
// produces the report-quality numbers.
var benchEnv = experiments.Env{Seed: 1, Jobs: 1, Scale: experiments.Quick}

func BenchmarkTable1CacheSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Table1(); len(tab.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure4HashRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure4(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Match {
			b.Fatal("hash mismatch")
		}
	}
}

func BenchmarkFigure5AccessTime(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure5(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		mn, mx := res.ReadCycles[0], res.ReadCycles[0]
		for _, c := range res.ReadCycles {
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
		}
		spread = mx - mn
	}
	b.ReportMetric(spread, "read-spread-cycles")
}

func BenchmarkFigure6Speedup(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure6(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		best = res.ReadSpeedup[0]
	}
	b.ReportMetric(best, "local-slice-read-speedup-%")
}

func BenchmarkFigure7OPS(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure7(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		for j, size := range res.Sizes {
			if size == 512<<10 {
				gain = (res.SliceReadMOPS[j]/res.NormalReadMOPS[j] - 1) * 100
			}
		}
	}
	b.ReportMetric(gain, "512K-read-gain-%")
}

func BenchmarkFigure8KVS(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure8(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.Cell(1.0, true, true)
		n, _ := res.Cell(1.0, true, false)
		gain = (s.TPSMillions/n.TPSMillions - 1) * 100
	}
	b.ReportMetric(gain, "skewed-GET-gain-%")
}

func BenchmarkHeadroomDistribution(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Headroom(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		med = res.Summary.P50
	}
	b.ReportMetric(med, "median-headroom-B")
}

func BenchmarkFigure12LowRate(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure12(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		base, cd := res.Summaries()
		gain = (base.P99 - cd.P99) / base.P99 * 100
	}
	b.ReportMetric(gain, "p99-speedup-%")
}

func BenchmarkFigure13Forwarding(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure13(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		base, cd := res.Summaries()
		gain = (base.P99 - cd.P99) / 1000
	}
	b.ReportMetric(gain, "p99-improvement-us")
}

func BenchmarkFigure14ServiceChain(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure14(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		base, cd := res.Summaries()
		gain = (base.P99 - cd.P99) / base.P99 * 100
	}
	b.ReportMetric(gain, "p99-speedup-%")
}

func BenchmarkTable3Throughput(b *testing.B) {
	var fwd float64
	for i := 0; i < b.N; i++ {
		f13, _, err := experiments.Figure13(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		f14, _, err := experiments.Figure14(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		res, _ := experiments.Table3From(f13, f14)
		fwd = res.ForwardGbps
	}
	b.ReportMetric(fwd, "forwarding-Gbps")
}

func BenchmarkFigure15Knee(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure15(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Points[len(res.Points)-1].BaseP99Us
	}
	b.ReportMetric(last, "max-rate-p99-us")
}

func BenchmarkFigure16Skylake(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure16(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		mn, mx := res.ReadCycles[0], res.ReadCycles[0]
		for _, c := range res.ReadCycles {
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
		}
		spread = mx - mn
	}
	b.ReportMetric(spread, "read-spread-cycles")
}

func BenchmarkTable4PreferredSlices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Prefs) != 8 {
			b.Fatal("bad preference table")
		}
	}
}

func BenchmarkFigure17Isolation(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figure17(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.SliceVsWaySpeedupRead * 100
	}
	b.ReportMetric(speedup, "slice-vs-way-%")
}

func BenchmarkAblationDDIOWays(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.AblationDDIOWays(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		worst = pts[0].P99Us // 1-way configuration
	}
	b.ReportMetric(worst, "1way-p99-us")
}

func BenchmarkAblationPlacement(b *testing.B) {
	var tier float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.AblationPlacement(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		tier = pts[len(pts)-1].P99Us
	}
	b.ReportMetric(tier, "app-sorted-p99-us")
}

func BenchmarkAblationSteering(b *testing.B) {
	var rssSpread float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.AblationSteering(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		rssSpread = float64(pts[0].Spread)
	}
	b.ReportMetric(rssSpread, "rss-queue-spread-pkts")
}

func BenchmarkAblationMultiSlice(b *testing.B) {
	var k4 float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.AblationMultiSlice(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		k4 = pts[len(pts)-1].Speedup
	}
	b.ReportMetric(k4, "4-slice-speedup-%")
}

func BenchmarkAblationReplacement(b *testing.B) {
	var bip float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.AblationReplacement(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		bip = pts[1].P99Us
	}
	b.ReportMetric(bip, "BIP-p99-us")
}

func BenchmarkAblationPrefetch(b *testing.B) {
	var contigOn float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.AblationPrefetch(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if !p.SliceAware && p.Prefetch {
				contigOn = p.CyclesPerOp
			}
		}
	}
	b.ReportMetric(contigOn, "contig+pf-cycles/op")
}

func BenchmarkExtensionSkylakeCacheDirector(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.SkylakeCacheDirector(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		if res.HaswellSpeedup > 0 {
			ratio = res.SkylakeSpeedup / res.HaswellSpeedup
		}
	}
	b.ReportMetric(ratio, "skylake/haswell-speedup-ratio")
}

func BenchmarkExtensionLargeValueKVS(b *testing.B) {
	var gain1k float64
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.LargeValueKVS(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		gain1k = pts[len(pts)-1].GainPct
	}
	b.ReportMetric(gain1k, "1KB-value-gain-%")
}

func BenchmarkExtensionVMIsolation(b *testing.B) {
	var protection float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.VMIsolation(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		var shared, isolated float64
		for _, r := range rows {
			if r.VM == "quiet" {
				if r.Policy == "shared" {
					shared = r.CyclesPerOp
				} else {
					isolated = r.CyclesPerOp
				}
			}
		}
		if shared > 0 {
			protection = (shared - isolated) / shared * 100
		}
	}
	b.ReportMetric(protection, "quiet-VM-protection-%")
}

func BenchmarkExtensionSharedPlacement(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.SharedDataPlacement(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		worst = rows[2].WorstCycles
	}
	b.ReportMetric(worst, "compromise-worst-cycles/op")
}

func BenchmarkExtensionHotMigration(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.HotMigration(benchEnv)
		if err != nil {
			b.Fatal(err)
		}
		saved = res.BeforeCycles - res.AfterCycles
	}
	b.ReportMetric(saved, "cycles/req-saved")
}
