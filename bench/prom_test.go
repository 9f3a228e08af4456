package main

import (
	"math"
	"testing"
)

const promFixture = `# HELP slicekvsd_request_stage_ns Stage time
# TYPE slicekvsd_request_stage_ns histogram
slicekvsd_request_stage_ns_bucket{stage="parse",le="512"} 10
slicekvsd_request_stage_ns_bucket{stage="parse",le="1024"} 90
slicekvsd_request_stage_ns_bucket{stage="parse",le="2048"} 100
slicekvsd_request_stage_ns_bucket{stage="parse",le="+Inf"} 100
slicekvsd_request_stage_ns_sum{stage="parse"} 80000
slicekvsd_request_stage_ns_count{stage="parse"} 100
slicekvsd_request_stage_ns_bucket{stage="shed",le="512"} 5
slicekvsd_request_stage_ns_bucket{stage="shed",le="+Inf"} 5
slicekvsd_request_stage_ns_sum{stage="shed"} 1000
slicekvsd_request_stage_ns_count{stage="shed"} 5
slicekvsd_shard_served{shard="0"} 40
slicekvsd_shard_served{shard="1"} 60
slicekvsd_state 1
`

func TestPromHistogram(t *testing.T) {
	series, err := parseProm(promFixture)
	if err != nil {
		t.Fatal(err)
	}
	h, err := promHistogram(series, "slicekvsd_request_stage_ns", map[string]string{"stage": "parse"})
	if err != nil {
		t.Fatal(err)
	}
	if h.mean() != 800 {
		t.Errorf("mean = %g, want 800", h.mean())
	}
	// Rank 99 of 100 lies in (1024, 2048], which holds ranks 91..100:
	// 1024 + 1024 × (99−90)/10.
	if got, want := h.quantile(0.99), 1024+1024*0.9; math.Abs(got-want) > 1e-9 {
		t.Errorf("p99 = %g, want %g", got, want)
	}
	if got := h.quantile(0.5); got <= 512 || got >= 1024 {
		t.Errorf("p50 = %g, want inside (512, 1024)", got)
	}
	if v := promValue(series, "slicekvsd_shard_served", nil); v != 100 {
		t.Errorf("sum of shard_served = %g, want 100", v)
	}
	if v := promValue(series, "slicekvsd_state", nil); v != 1 {
		t.Errorf("unlabelled series = %g, want 1", v)
	}
	if _, err := promHistogram(series, "slicekvsd_request_stage_ns", map[string]string{"stage": "nope"}); err == nil {
		t.Error("a stage with no buckets must be an error, not a zero")
	}
}

func TestPromHistogramDelta(t *testing.T) {
	series, err := parseProm(promFixture)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"stage": "parse"}
	after, _ := promHistogram(series, "slicekvsd_request_stage_ns", want)
	before := histogram{sum: 20000, count: 50, bounds: after.bounds, cum: []float64{10, 50, 50, 50}}
	d := after.sub(before)
	if d.count != 50 || d.mean() != 1200 {
		t.Errorf("delta count %g mean %g, want 50 and 1200", d.count, d.mean())
	}
	// All ten observations above 1024 arrived in the window: p99 is among them.
	if got := d.quantile(0.99); got <= 1024 {
		t.Errorf("delta p99 = %g, want above 1024", got)
	}
	// A rank in the +Inf bucket reports the highest finite bound.
	inf := histogram{bounds: []float64{512, math.Inf(1)}, cum: []float64{1, 100}}
	if got := inf.quantile(0.99); got != 512 {
		t.Errorf("p99 in the +Inf bucket = %g, want 512", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue", `m{a="b" 1`, `m{a=b} 1`, "m notanumber"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted it", bad)
		}
	}
}
