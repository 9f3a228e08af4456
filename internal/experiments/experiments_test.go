package experiments

import (
	"strings"
	"testing"
)

// quick is the environment of the package's tests: seed 1, quick scale,
// one worker per experiment (the tests themselves run in parallel). A test
// that needs another seed, worker count or collector copies it.
var quick = Env{Seed: 1, Jobs: 1, Scale: Quick}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tab := &Table{
		ID:     "X1",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := tab.String()
	for _, want := range []string{"== X1: demo ==", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale strings broken")
	}
	if Quick.pick(1, 2) != 1 || Full.pick(1, 2) != 2 {
		t.Error("pick broken")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	t.Parallel()
	tab := Table1()
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// LLC-Slice row: 2560 kB, 20 ways, 2048 sets, bits 16-6.
	row := tab.Rows[0]
	if row[1] != "2560 kB" || row[2] != "20" || row[3] != "2048" || row[4] != "16-6" {
		t.Errorf("LLC row = %v", row)
	}
}

func TestFigure4RecoversExactly(t *testing.T) {
	t.Parallel()
	res, tab, err := Figure4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Error("recovered hash does not match ground truth")
	}
	if res.Recovered.Verified != res.Recovered.Checked {
		t.Errorf("verification %d/%d", res.Recovered.Verified, res.Recovered.Checked)
	}
	if len(tab.Rows) != 3 {
		t.Errorf("%d matrix rows", len(tab.Rows))
	}
}

func TestFigure5Shape(t *testing.T) {
	t.Parallel()
	res, _, err := Figure5(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Local slice cheapest; bimodal: every even slice cheaper than every
	// odd slice from core 0.
	for s := 0; s < 8; s += 2 {
		for o := 1; o < 8; o += 2 {
			if res.ReadCycles[s] >= res.ReadCycles[o] {
				t.Errorf("read: even slice %d (%.1f) ≥ odd slice %d (%.1f)",
					s, res.ReadCycles[s], o, res.ReadCycles[o])
			}
		}
	}
	// Writes flat: max-min below 2 cycles.
	mn, mx := res.WriteCycles[0], res.WriteCycles[0]
	for _, w := range res.WriteCycles {
		if w < mn {
			mn = w
		}
		if w > mx {
			mx = w
		}
	}
	if mx-mn > 2 {
		t.Errorf("writes not flat: %.1f..%.1f", mn, mx)
	}
	// The paper's ≈20-cycle read spread.
	rmn, rmx := res.ReadCycles[0], res.ReadCycles[0]
	for _, r := range res.ReadCycles {
		if r < rmn {
			rmn = r
		}
		if r > rmx {
			rmx = r
		}
	}
	if rmx-rmn < 10 || rmx-rmn > 30 {
		t.Errorf("read spread %.1f cycles outside the plausible 10..30", rmx-rmn)
	}
}

func TestFigure6Shape(t *testing.T) {
	t.Parallel()
	res, _, err := Figure6(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Slice 0 (local) must give the best speedup; the far odd slices must
	// be negative (slower than normal allocation).
	for s := 1; s < 8; s++ {
		if res.ReadSpeedup[0] <= res.ReadSpeedup[s] {
			t.Errorf("slice 0 read speedup %.1f%% not the best (slice %d: %.1f%%)",
				res.ReadSpeedup[0], s, res.ReadSpeedup[s])
		}
	}
	if res.ReadSpeedup[0] < 5 {
		t.Errorf("local-slice read speedup %.1f%% too small", res.ReadSpeedup[0])
	}
	if res.ReadSpeedup[3] > 0 {
		t.Errorf("far slice 3 read speedup %.1f%% should be negative", res.ReadSpeedup[3])
	}
	if res.WriteSpeedup[0] < 3 {
		t.Errorf("local-slice write speedup %.1f%% too small", res.WriteSpeedup[0])
	}
	if res.NormalReadMs <= 0 || res.NormalWriteMs <= 0 {
		t.Error("baselines not recorded")
	}
}

func TestFigure7Shape(t *testing.T) {
	t.Parallel()
	res, _, err := Figure7(quick)
	if err != nil {
		t.Fatal(err)
	}
	find := func(size int) int {
		for i, s := range res.Sizes {
			if s == size {
				return i
			}
		}
		t.Fatalf("size %d missing", size)
		return -1
	}
	// In the sweet spot (512 KB: bigger than L2, fits a slice) slice-aware
	// must win clearly.
	i := find(512 << 10)
	if res.SliceReadMOPS[i] < res.NormalReadMOPS[i]*1.05 {
		t.Errorf("512K: slice %.0f not ≥5%% above normal %.0f", res.SliceReadMOPS[i], res.NormalReadMOPS[i])
	}
	// Tiny arrays: both L1-resident, no meaningful difference.
	i = find(32 << 10)
	ratio := res.SliceReadMOPS[i] / res.NormalReadMOPS[i]
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("32K: ratio %.2f should be ≈1", ratio)
	}
	// OPS must decrease with size (cache ladder).
	for j := 1; j < len(res.Sizes); j++ {
		if res.NormalReadMOPS[j] > res.NormalReadMOPS[j-1]*1.1 {
			t.Errorf("normal read MOPS increased from %s to %s", sizeLabel(res.Sizes[j-1]), sizeLabel(res.Sizes[j]))
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	t.Parallel()
	res, _, err := Figure8(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, ratio := range []float64{1.0, 0.95, 0.5} {
		s, _ := res.Cell(ratio, true, true)
		n, _ := res.Cell(ratio, true, false)
		if s.TPSMillions <= n.TPSMillions {
			t.Errorf("skewed %.0f%% GET: slice %.2f ≤ normal %.2f", ratio*100, s.TPSMillions, n.TPSMillions)
		}
		su, _ := res.Cell(ratio, false, true)
		nu, _ := res.Cell(ratio, false, false)
		if d := (su.TPSMillions - nu.TPSMillions) / nu.TPSMillions; d < -0.05 {
			t.Errorf("uniform %.0f%% GET: slice-aware %.1f%% below normal", ratio*100, d*100)
		}
		// Skewed workloads serve far more TPS than uniform.
		if n.TPSMillions < nu.TPSMillions {
			t.Errorf("skewed normal %.2f below uniform normal %.2f", n.TPSMillions, nu.TPSMillions)
		}
	}
	// 50% GET is the slowest column (write-back drains).
	g100, _ := res.Cell(1.0, true, true)
	g50, _ := res.Cell(0.5, true, true)
	if g50.TPSMillions > g100.TPSMillions {
		t.Errorf("50%% GET (%.2f) faster than 100%% GET (%.2f)", g50.TPSMillions, g100.TPSMillions)
	}
}

func TestHeadroomMatchesPaper(t *testing.T) {
	t.Parallel()
	res, _, err := Headroom(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Max > 832 {
		t.Errorf("max headroom %.0f exceeds the 832 B budget", res.Summary.Max)
	}
	if res.Summary.P50 < 64 || res.Summary.P50 > 448 {
		t.Errorf("median %.0f far from the paper's 256", res.Summary.P50)
	}
	if res.Summary.P95 > 832 {
		t.Errorf("p95 %.0f beyond budget", res.Summary.P95)
	}
	if res.Misses != 0 {
		t.Errorf("%d unplaceable (mbuf,core) pairs on Haswell", res.Misses)
	}
}

func TestFigure16AndTable4(t *testing.T) {
	t.Parallel()
	res, _, err := Figure16(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReadCycles) != 18 {
		t.Fatalf("%d slices", len(res.ReadCycles))
	}
	// Core 0 sits on tile 0: slice 0 must be the cheapest.
	for s := 1; s < 18; s++ {
		if res.ReadCycles[0] > res.ReadCycles[s] {
			t.Errorf("slice 0 (%.1f) not cheapest (slice %d: %.1f)", res.ReadCycles[0], s, res.ReadCycles[s])
		}
	}

	prefres, tab, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(prefres.Prefs) != 8 || len(tab.Rows) != 8 {
		t.Fatalf("table 4 shape wrong")
	}
	// Primary slices match the paper's Table 4.
	want := []int{0, 4, 8, 12, 10, 14, 3, 15}
	for c, p := range prefres.Prefs {
		if p.Primary != want[c] {
			t.Errorf("core %d primary S%d, want S%d", c, p.Primary, want[c])
		}
	}
}
