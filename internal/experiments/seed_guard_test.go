package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the pinned seed golden files")

// TestF8F13F14QuickSeed1MatchGolden pins the F8/F13/F14 quick seed-1
// tables to a golden file. If the golden ever drifts, either a shared
// code path (llc, dpdk, netsim) changed behaviour — a regression — or the
// change is intentional and the golden is regenerated with -update.
func TestF8F13F14QuickSeed1MatchGolden(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if _, tab, err := Figure8(quick); err != nil {
		t.Fatal(err)
	} else {
		tab.Fprint(&buf)
	}
	if _, tab, err := Figure13(quick); err != nil {
		t.Fatal(err)
	} else {
		tab.Fprint(&buf)
	}
	if _, tab, err := Figure14(quick); err != nil {
		t.Fatal(err)
	} else {
		tab.Fprint(&buf)
	}

	golden := filepath.Join("testdata", "seed1_quick_f8_f13_f14.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("F8/F13/F14 quick seed-1 output drifted from %s (rerun with -update if intentional)\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestParallelJobsLeaveTablesByteIdentical is the determinism guard for the
// worker-pool trial engine: the F-FAULTS and F-OVERLOAD quick seed-1 tables
// — two harnesses that fan out on runTrials, one with five independently
// configured trials and one with a stateful recovery phase — must be
// byte-identical at -jobs 1 and -jobs 4, and both must match the pinned
// golden. Any divergence means a
// trial leaked state across workers or collection order broke.
func TestParallelJobsLeaveTablesByteIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("two full quick renders of F-FAULTS+F-OVERLOAD")
	}
	render := func(jobs int) []byte {
		env := quick
		env.Jobs = jobs
		var buf bytes.Buffer
		if _, tab, err := FigFaults(env); err != nil {
			t.Fatal(err)
		} else {
			tab.Fprint(&buf)
		}
		if _, tab, err := FigOverload(env); err != nil {
			t.Fatal(err)
		} else {
			tab.Fprint(&buf)
		}
		return buf.Bytes()
	}
	seq := render(1)
	par := render(4)
	if !bytes.Equal(seq, par) {
		t.Errorf("-jobs 4 output diverges from -jobs 1:\njobs=1:\n%s\njobs=4:\n%s", seq, par)
	}

	golden := filepath.Join("testdata", "seed1_quick_ffaults_foverload.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, seq, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, want) {
		t.Errorf("F-FAULTS/F-OVERLOAD quick seed-1 output drifted from %s (rerun with -update if intentional)\ngot:\n%s\nwant:\n%s",
			golden, seq, want)
	}
}
