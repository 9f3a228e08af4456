package telemetry

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrentScrapeAndRecord hammers WritePrometheus while
// shard goroutines record into counters, gauges, and histograms and new
// series keep registering — the exact interleaving a live daemon sees
// when Prometheus scrapes mid-storm. The test's job is to fail under
// -race; the assertions are sanity floor checks.
func TestRegistryConcurrentScrapeAndRecord(t *testing.T) {
	const shards = 4
	const writers = 8
	const iters = 2000

	reg := NewRegistry(shards)
	ctr := reg.CounterL("race_requests_total", "r", `op="get"`)
	g := reg.GaugeL("race_level", "g", "")
	h := reg.Histogram("race_latency_ns", "h", ExpBuckets(1, 2, 20))
	reg.GaugeFunc("race_func", "f", "", func() float64 { return 1 })

	var wg sync.WaitGroup
	start := make(chan struct{})

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				ctr.Inc(w % shards)
				g.Set(float64(i))
				h.Observe(w%shards, float64(i))
			}
		}()
	}

	// Concurrent registration of fresh series (connection churn does this
	// when per-peer series exist) must not race the scrapers either.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 64; i++ {
			c := reg.CounterL("race_churn_total", "c", fmt.Sprintf("peer=%q", fmt.Sprint(i)))
			c.Inc(i % shards)
		}
	}()

	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}

	close(start)
	wg.Wait()

	if got := ctr.Value(); got != writers*iters {
		t.Fatalf("counter = %d, want %d", got, writers*iters)
	}
	_, _, count := h.Merged()
	if count != writers*iters {
		t.Fatalf("histogram count = %d, want %d", count, writers*iters)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("race_requests_total")) {
		t.Fatal("final exposition lost the counter family")
	}
}
