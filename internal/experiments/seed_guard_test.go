package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/llcmgmt"
)

var updateGolden = flag.Bool("update", false, "rewrite the pinned seed golden files")

// TestTenantSubsystemLeavesSeedOutputUnchanged pins the F8/F13/F14 quick
// seed-1 tables to a golden file and proves the tenant subsystem is
// pay-for-what-you-use: a constructed-but-empty registry and a disarmed,
// ticking controller must leave every pre-existing experiment
// byte-identical to the seed. If the golden ever drifts, either a shared
// code path (llc, dpdk, netsim) changed behaviour for unregistered
// machines — a regression — or the change is intentional and the golden
// is regenerated with -update.
func TestTenantSubsystemLeavesSeedOutputUnchanged(t *testing.T) {
	t.Parallel()
	// Construct the subsystem's objects on a scratch machine first; they
	// must not perturb any global state the experiments depend on.
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := llcmgmt.NewRegistry(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := llcmgmt.NewController(reg, llcmgmt.ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Armed() {
		t.Fatal("controller must start disarmed")
	}
	for i := 0; i < 10; i++ {
		ctrl.Tick(float64(i) * 1e5) // disarmed ticks are no-ops
	}
	if got := ctrl.Stats(); got.Epochs != 0 {
		t.Fatalf("disarmed controller closed %d epochs, want 0", got.Epochs)
	}

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
// worker-pool trial engine: the F-TENANT and F-OVERLOAD quick seed-1 tables
// — the two harnesses with the most intricate trial structure (calibration
// fan-out, two-point recovery trials, a stateful recovery phase) — must be
// byte-identical at -jobs 1 and -jobs 4, and both must match the golden
// pinned from the sequential pre-engine output. Any divergence means a
// trial leaked state across workers or collection order broke.
func TestParallelJobsLeaveTablesByteIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("two full quick renders of F-TENANT+F-OVERLOAD")
	}
	render := func(jobs int) []byte {
		env := quick
		env.Jobs = jobs
		var buf bytes.Buffer
		if _, tab, err := FigTenant(env); err != nil {
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

	golden := filepath.Join("testdata", "seed1_quick_ftenant_foverload.golden")
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
		t.Errorf("F-TENANT/F-OVERLOAD quick seed-1 output drifted from %s (rerun with -update if intentional)\ngot:\n%s\nwant:\n%s",
			golden, seq, want)
	}
}
