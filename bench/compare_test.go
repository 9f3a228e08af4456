package main

import (
	"bytes"
	"strings"
	"testing"
)

func flat(v float64) Summary { return Summary{Median: v, Min: v, Max: v, N: 1} }

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		def  metricDef
		a, b Summary
		want string
	}{
		{"lower-better, unchanged", lower, flat(100), flat(100), verdictOK},
		{"lower-better, 5 % worse, inside the bound", lower, flat(100), flat(105), verdictOK},
		{"lower-better, 20 % worse", lower, flat(100), flat(120), verdictRegressed},
		{"lower-better, 20 % better", lower, flat(100), flat(80), verdictOK},
		{"higher-better, 20 % lower", higher, flat(1000), flat(800), verdictRegressed},
		{"higher-better, 20 % higher", higher, flat(1000), flat(1200), verdictOK},
		{"ranges overlap by more than the bound", lower,
			Summary{Median: 100, Min: 90, Max: 125, N: 3}, Summary{Median: 120, Min: 95, Max: 130, N: 3}, verdictUnresolved},
		{"ranges overlap by less than the bound", lower,
			Summary{Median: 100, Min: 98, Max: 104, N: 3}, Summary{Median: 120, Min: 103, Max: 125, N: 3}, verdictRegressed},
		{"ranges apart, candidate worse", lower,
			Summary{Median: 100, Min: 98, Max: 102, N: 3}, Summary{Median: 130, Min: 125, Max: 135, N: 3}, verdictRegressed},
		{"noisy but every run inside the bound", lower,
			Summary{Median: 100, Min: 97, Max: 103, N: 3}, Summary{Median: 101, Min: 98, Max: 104, N: 3}, verdictOK},
		{"baseline of zero cannot be judged", lower, flat(0), flat(5), verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func syntheticDoc(ops, lat float64, sha string, simGbps float64, failed int64) *Document {
	return &Document{Workloads: []*WorkloadResult{{
		Name: "nfv-chain", Correct: failed == 0, Attempted: 1000, Failed: failed, OutputSHA256: sha,
		EndToEnd: map[string]Summary{"ops_per_s": flat(ops), "lat_p50_us": flat(lat)},
		PerLayer: map[string]float64{"netsim.sim_gbps": simGbps, "nfv.chain.ns_per_pkt": 800},
	}}}
}

func TestCompareDocs(t *testing.T) {
	man := &manifest{EndToEnd: []metricDef{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}, // in neither document: skipped
	}}
	base := syntheticDoc(1000, 100, "aa", 75, 0)
	cases := []struct {
		name      string
		b         *Document
		regressed int
		simFlag   bool
	}{
		{"identical", syntheticDoc(1000, 100, "aa", 75, 0), 0, false},
		{"faster, same simulated output", syntheticDoc(1300, 80, "aa", 75, 0), 0, false},
		{"slower on both metrics", syntheticDoc(800, 130, "aa", 75, 0), 2, false},
		{"digest changed", syntheticDoc(1000, 100, "bb", 75, 0), 0, true},
		{"sim metric changed under an equal digest", syntheticDoc(1000, 100, "aa", 76, 0), 0, true},
		{"failures appeared", syntheticDoc(1000, 100, "aa", 75, 5), 1, false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compareDocs(man, base, c.b, &out); got != c.regressed {
			t.Errorf("%s: %d regressed, want %d\n%s", c.name, got, c.regressed, out.String())
		}
		if got := strings.Contains(out.String(), "sim-output-changed"); got != c.simFlag {
			t.Errorf("%s: sim-output-changed flag %v, want %v", c.name, got, c.simFlag)
		}
		if strings.Contains(out.String(), "setup_s") {
			t.Errorf("%s: a metric absent from both documents got a row", c.name)
		}
	}
	// A host-time per-layer metric may differ freely.
	other := syntheticDoc(1000, 100, "aa", 75, 0)
	other.Workloads[0].PerLayer["nfv.chain.ns_per_pkt"] = 500
	var out bytes.Buffer
	compareDocs(man, base, other, &out)
	if strings.Contains(out.String(), "sim-output-changed") {
		t.Error("a host-time metric raised the sim-output-changed flag")
	}
}
