package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func decode(t *testing.T, doc string) *File {
	t.Helper()
	f, err := Decode([]byte(doc))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return f
}

func expand(t *testing.T, doc string) []*Scenario {
	t.Helper()
	scs, err := decode(t, doc).Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return scs
}

func TestRenderReproduceArgsDeterministic(t *testing.T) {
	scs := expand(t, `{
		"scenarios": [{
			"id": "t1", "tool": "reproduce", "scale": "quick",
			"seed": 1, "only": ["t1", "f4"],
			"flags": {"metrics-dir": "tele"}
		}]
	}`)
	if len(scs) != 1 {
		t.Fatalf("expanded %d scenarios, want 1", len(scs))
	}
	got := strings.Join(scs[0].Args, " ")
	want := "-scale=quick -seed=1 -jobs=1 -only=T1,F4 -metrics-dir=tele"
	if got != want {
		t.Fatalf("args = %q, want %q", got, want)
	}
	if scs[0].SeedDerived {
		t.Fatal("pinned seed reported as derived")
	}
	if scs[0].TimeoutNS != 5*time.Minute {
		t.Fatalf("default timeout = %v, want 5m", scs[0].TimeoutNS)
	}
}

func TestUnknownExperimentIDRejected(t *testing.T) {
	_, err := decode(t, `{
		"scenarios": [{"id": "x", "tool": "reproduce", "only": ["NOPE"]}]
	}`).Expand()
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("unknown experiment ID accepted: %v", err)
	}
}

func TestUnknownToolFlagRejected(t *testing.T) {
	_, err := decode(t, `{
		"scenarios": [{"id": "x", "tool": "reproduce", "flags": {"metrics-dri": "m"}}]
	}`).Expand()
	if err == nil || !strings.Contains(err.Error(), `"metrics-dri"`) {
		t.Fatalf("unknown tool flag accepted: %v", err)
	}
}

func TestReservedFlagRejected(t *testing.T) {
	for doc, frag := range map[string]string{
		`{"scenarios": [{"id": "x", "tool": "reproduce", "flags": {"seed": 3}}]}`: "seed",
		`{"scenarios": [{"id": "x", "tool": "serving", "serving": {
			"loadgen": {"addr": "127.0.0.1:1"}}}]}`: "addr",
	} {
		_, err := decode(t, doc).Expand()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("reserved flag %q accepted: %v", frag, err)
		}
	}
}

func TestStrictUnknownFieldRejected(t *testing.T) {
	if _, err := Decode([]byte(`{"scenarioz": []}`)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
}

func TestScaleValidation(t *testing.T) {
	if _, err := decode(t, `{"scenarios": [{"id": "x", "tool": "raw", "argv": ["true"], "scale": "quick"}]}`).Expand(); err == nil {
		t.Fatal("scale accepted on a scale-less tool")
	}
	if _, err := decode(t, `{"scenarios": [{"id": "x", "tool": "reproduce", "scale": "huge"}]}`).Expand(); err == nil {
		t.Fatal("unknown scale accepted")
	}
	scs := expand(t, `{"scenarios": [{"id": "x", "tool": "reproduce", "scale": "full"}]}`)
	if got := strings.Join(scs[0].Args, " "); !strings.Contains(got, "-scale=full") {
		t.Fatalf("reproduce full scale args = %q, want -scale=full", got)
	}
}

func TestGoldenPathEscapesRejected(t *testing.T) {
	_, err := decode(t, `{"scenarios": [{"id": "x", "tool": "reproduce", "golden": "../../etc/passwd"}]}`).Expand()
	if err == nil {
		t.Fatal("golden path escaping the run tree accepted")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	_, err := decode(t, `{
		"defaults": {"tool": "reproduce"},
		"scenarios": [{"id": "a"}, {"id": "a"}]
	}`).Expand()
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate id accepted: %v", err)
	}
}

func TestDefaultsMergeScenarioWins(t *testing.T) {
	scs := expand(t, `{
		"defaults": {"tool": "reproduce", "timeout": "30s",
			"flags": {"metrics-dir": "m"}, "env": {"A": "1", "B": "2"}},
		"scenarios": [
			{"id": "a"},
			{"id": "b", "timeout": "9s", "flags": {"metrics-dir": "n"}, "env": {"A": "3"}}
		]
	}`)
	if scs[0].TimeoutNS != 30*time.Second || scs[1].TimeoutNS != 9*time.Second {
		t.Fatalf("timeouts = %v, %v", scs[0].TimeoutNS, scs[1].TimeoutNS)
	}
	a, b := strings.Join(scs[0].Args, " "), strings.Join(scs[1].Args, " ")
	if !strings.Contains(a, "-metrics-dir=m") || !strings.Contains(b, "-metrics-dir=n") {
		t.Fatalf("flag merge wrong: a=%q b=%q", a, b)
	}
	if env := scs[1].Env; env["A"] != "3" || env["B"] != "2" {
		t.Fatalf("env merge wrong in b: %v", env)
	}
}

func TestServingFinalize(t *testing.T) {
	scs := expand(t, `{
		"scenarios": [{
			"id": "srv", "tool": "serving", "seed": 7,
			"serving": {
				"daemon": {"shards": 4, "full-sojourn": "300us"},
				"loadgen": {"conns": 8, "duration": "2s"},
				"statsink": {"out": "events.jsonl"},
				"ready_timeout": "5s"
			}
		}]
	}`)
	sv := scs[0].Serving
	if sv == nil {
		t.Fatal("no serving config")
	}
	if sv.DaemonFlags["shards"] != "4" || sv.LoadgenFlags["duration"] != "2s" {
		t.Fatalf("flag maps wrong: %+v", sv)
	}
	if !sv.Statsink || sv.StatsinkFlags["out"] != "events.jsonl" {
		t.Fatalf("statsink wiring wrong: %+v", sv)
	}
	if sv.ReadyTimeout != 5*time.Second || !sv.ExpectDrain {
		t.Fatalf("timeouts/drain wrong: %+v", sv)
	}
}

func TestRawToolRequiresArgv(t *testing.T) {
	if _, err := decode(t, `{"scenarios": [{"id": "x", "tool": "raw"}]}`).Expand(); err == nil {
		t.Fatal("raw without argv accepted")
	}
	scs := expand(t, `{"scenarios": [{"id": "x", "tool": "raw", "argv": ["sh", "-c", "exit 0"]}]}`)
	if len(scs[0].Argv) != 3 {
		t.Fatalf("argv = %v", scs[0].Argv)
	}
}

// mustJSON marshals the expansion for byte-comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

const matrixDoc = `{
	"run_seed": 42,
	"defaults": {"tool": "reproduce", "scale": "quick", "timeout": "1m"},
	"matrix": [{
		"base": {"id": "paper"},
		"axes": {
			"only": [["T1"], ["F4"], ["F8"]],
			"jobs": [1, 2]
		}
	}]
}`

func TestMatrixExpansionDeterministic(t *testing.T) {
	first := mustJSON(t, expand(t, matrixDoc))
	for i := 0; i < 20; i++ {
		if got := mustJSON(t, expand(t, matrixDoc)); got != first {
			t.Fatalf("expansion %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}

	scs := expand(t, matrixDoc)
	wantIDs := []string{
		"paper/jobs=1/only=T1", "paper/jobs=1/only=F4", "paper/jobs=1/only=F8",
		"paper/jobs=2/only=T1", "paper/jobs=2/only=F4", "paper/jobs=2/only=F8",
	}
	if len(scs) != len(wantIDs) {
		t.Fatalf("expanded %d scenarios, want %d", len(scs), len(wantIDs))
	}
	for i, sc := range scs {
		if sc.ID != wantIDs[i] {
			t.Errorf("scenario %d id = %q, want %q", i, sc.ID, wantIDs[i])
		}
		if sc.Index != i {
			t.Errorf("scenario %q index = %d, want %d", sc.ID, sc.Index, i)
		}
		if !sc.SeedDerived {
			t.Errorf("scenario %q seed not derived", sc.ID)
		}
		if want := DeriveSeed(42, sc.ID, i); sc.Seed != want {
			t.Errorf("scenario %q seed = %d, want f(runSeed,id,index) = %d", sc.ID, sc.Seed, want)
		}
	}
}

func TestDeriveSeedMatchesParallelDiscipline(t *testing.T) {
	// Distinct (id, index) pairs must get distinct streams; the same
	// triple must always agree.
	a := DeriveSeed(1, "paper/only=T1", 0)
	b := DeriveSeed(1, "paper/only=T1", 1)
	c := DeriveSeed(1, "paper/only=F4", 0)
	d := DeriveSeed(2, "paper/only=T1", 0)
	if a == b || a == c || a == d || b == c {
		t.Fatalf("seed collisions: %d %d %d %d", a, b, c, d)
	}
	if a != DeriveSeed(1, "paper/only=T1", 0) {
		t.Fatal("same triple produced different seeds")
	}
}

func TestMatrixAxisOrderIndependentOfSpelling(t *testing.T) {
	// The same axes written in a different key order must expand to the
	// byte-identical list (axes iterate in sorted-name order).
	reordered := `{
	"run_seed": 42,
	"defaults": {"tool": "reproduce", "scale": "quick", "timeout": "1m"},
	"matrix": [{
		"base": {"id": "paper"},
		"axes": {
			"jobs": [1, 2],
			"only": [["T1"], ["F4"], ["F8"]]
		}
	}]
}`
	if mustJSON(t, expand(t, matrixDoc)) != mustJSON(t, expand(t, reordered)) {
		t.Fatal("axis spelling order changed the expansion")
	}
}

func TestMatrixServingAxis(t *testing.T) {
	scs := expand(t, `{
		"matrix": [{
			"base": {"id": "srv", "tool": "serving", "serving": {
				"daemon": {"shards": 2}, "loadgen": {"duration": "1s"}}},
			"axes": {"daemon.shards": [2, 8]}
		}]
	}`)
	if len(scs) != 2 {
		t.Fatalf("expanded %d, want 2", len(scs))
	}
	if scs[1].Serving.DaemonFlags["shards"] != "8" {
		t.Fatalf("axis did not reach daemon flags: %+v", scs[1].Serving.DaemonFlags)
	}
	if scs[0].ID != "srv/shards=2" || scs[1].ID != "srv/shards=8" {
		t.Fatalf("ids = %q, %q", scs[0].ID, scs[1].ID)
	}
}

func TestUnknownAxisRejected(t *testing.T) {
	_, err := decode(t, `{
		"matrix": [{"base": {"id": "x", "tool": "reproduce"}, "axes": {"speed": [1]}}]
	}`).Expand()
	if err == nil || !strings.Contains(err.Error(), `"speed"`) {
		t.Fatalf("unknown axis accepted: %v", err)
	}
}

func TestEmptyExpansionRejected(t *testing.T) {
	if _, err := decode(t, `{"name": "empty"}`).Expand(); err == nil {
		t.Fatal("empty file expanded successfully")
	}
}

// TestCommittedScenariosLoadAndExpand loads and expands every committed
// scenario file, and pins robustness-sweep's matrix expansion: IDs, derived
// seeds and rendered flags.
func TestCommittedScenariosLoadAndExpand(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed scenario files: %v", err)
	}
	for _, path := range paths {
		f, err := Load(path)
		if err != nil {
			t.Errorf("Load: %v", err)
			continue
		}
		if f.Dir != filepath.Dir(path) {
			t.Errorf("%s: Dir = %q", path, f.Dir)
		}
		if _, err := f.Expand(); err != nil {
			t.Errorf("%s: Expand: %v", path, err)
		}
	}

	f, err := Load("../../scenarios/robustness-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	scs, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		id   string
		seed int64
		only string
	}{
		{"robustness/only=F-FAULTS", 8329273504361656720, "F-FAULTS"},
		{"robustness/only=F-OVERLOAD", -8714131324656600347, "F-OVERLOAD"},
	}
	if len(scs) != len(want) {
		t.Fatalf("robustness-sweep expanded to %d scenarios, want %d", len(scs), len(want))
	}
	for i, w := range want {
		sc := scs[i]
		args := []string{"-scale=quick", "-seed=" + strconv.FormatInt(w.seed, 10), "-jobs=1",
			"-only=" + w.only, "-metrics-dir=telemetry"}
		if sc.ID != w.id || sc.Seed != w.seed || !sc.SeedDerived || !reflect.DeepEqual(sc.Args, args) {
			t.Errorf("scenario %d = %q seed %d (derived %v) args %q; want %q seed %d args %q",
				i, sc.ID, sc.Seed, sc.SeedDerived, sc.Args, w.id, w.seed, args)
		}
	}
}

func TestLoadRejectsUnknownExtension(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"s.yaml", "s.toml"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "want .json") {
			t.Errorf("Load(%s) error = %v, want an unsupported-format error", name, err)
		}
	}
}
