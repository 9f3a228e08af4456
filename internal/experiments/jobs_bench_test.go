package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkJobsScaling measures the multi-core scaling curve of the
// trial fan-out: one full Figure 8 reproduction (12 independent KVS
// cells, each with its own machine and store) at -jobs 1/2/4/8. The
// jobs>1 points exist only on multi-core machines — on a single-CPU
// runner there is no parallel speedup to measure, just scheduler
// overhead, so those levels skip rather than record noise in the
// committed bench snapshot.
//
// Output is byte-identical at every worker count (the determinism gate
// pins that); this benchmark measures only the wall-clock side of the
// same contract.
func BenchmarkJobsScaling(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			if jobs > 1 && runtime.NumCPU() == 1 {
				b.Skipf("runtime.NumCPU()=1: scaling point jobs=%d not measurable", jobs)
			}
			env := quick
			env.Jobs = jobs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _, err := Figure8(env)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) == 0 {
					b.Fatal("Figure8 returned no cells")
				}
			}
		})
	}
}
