package cachesim

import "testing"

// The insert/lookup micro-benchmarks guard the per-access hot path: every
// simulated memory reference funnels through Lookup and (on a miss) Insert,
// so a single allocation here multiplies across hundreds of millions of
// accesses in a full-scale reproduction run. Their steady state is 0
// allocs/op, which TestPrivateCacheAllocatesNothingAfterNew pins.

func benchCache(b *testing.B) *Cache {
	b.Helper()
	c, err := New("bench", 64, 20)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkLookup(b *testing.B) {
	c := benchCache(b)
	for i := uint64(0); i < 64*20; i++ {
		c.Insert(i, false, AllWays)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i)%(64*20), i&1 == 0)
	}
}

func BenchmarkInsertAllWays(b *testing.B) {
	c := benchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride past the working set so most insertions evict.
		c.Insert(uint64(i)*7, false, AllWays)
	}
}

func BenchmarkInsertMasked(b *testing.B) {
	c := benchCache(b)
	mask := MaskOfWayRange(18, 20) // the 2-way DDIO partition of the paper
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i)*7, true, mask)
	}
}
