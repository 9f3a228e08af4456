package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sliceaware/internal/scenario"
)

func TestClassifyPrecedence(t *testing.T) {
	cases := []struct {
		name     string
		startErr error
		timedOut bool
		signaled bool
		exitCode int
		want     Status
	}{
		{"clean exit", nil, false, false, 0, StatusPass},
		{"nonzero exit", nil, false, false, 3, StatusFailed},
		{"signal death", nil, false, true, -1, StatusCrash},
		{"timeout", nil, true, false, -1, StatusTimeout},
		// The orchestrator's own kill arrives as a signal; timeout must win.
		{"timeout kill is not a crash", nil, true, true, -1, StatusTimeout},
		{"start failure hides everything", errors.New("no such file"), true, true, 3, StatusError},
	}
	for _, c := range cases {
		if got := classify(c.startErr, c.timedOut, c.signaled, c.exitCode); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestOnlyCrashIsRetryable(t *testing.T) {
	for s, want := range map[Status]bool{
		StatusPass: false, StatusGoldenMismatch: false, StatusTimeout: false,
		StatusCrash: true, StatusFailed: false, StatusError: false,
	} {
		if retryable(s) != want {
			t.Errorf("retryable(%s) = %v, want %v", s, retryable(s), want)
		}
	}
}

func TestNormalizeOutput(t *testing.T) {
	raw := "# Reproduction run 2026-08-07T01:02:03Z seed=1\n" +
		"## T1: hit latency\n" +
		"col\tval\n" +
		"(T1 in 12.3ms)\n" +
		"tail\r\n"
	got := string(normalizeOutput([]byte(raw)))
	want := "## T1: hit latency\ncol\tval\ntail\n"
	if got != want {
		t.Fatalf("normalizeOutput:\n got %q\nwant %q", got, want)
	}
	// Trailing-newline differences must not survive normalization.
	if a, b := normalizeOutput([]byte("x")), normalizeOutput([]byte("x\n\n")); string(a) != string(b) {
		t.Fatalf("trailing newlines not normalized: %q vs %q", a, b)
	}
}

func TestFirstDiff(t *testing.T) {
	if d := firstDiff([]byte("a\nb\n"), []byte("a\nb\n")); d != "" {
		t.Fatalf("identical inputs diffed: %q", d)
	}
	d := firstDiff([]byte("a\nb\nc\n"), []byte("a\nX\nc\n"))
	if !strings.Contains(d, "line 2") || !strings.Contains(d, "- b") || !strings.Contains(d, "+ X") {
		t.Fatalf("unexpected diff: %q", d)
	}
	d = firstDiff([]byte("a\nb"), []byte("a\nb\nc"))
	if !strings.Contains(d, "lines") {
		t.Fatalf("length-only diff not reported: %q", d)
	}
}

func TestSanitizeID(t *testing.T) {
	if got := sanitizeID("paper/jobs=2/only=T1"); got != "paper~jobs=2~only=T1" {
		t.Fatalf("sanitizeID = %q", got)
	}
}

// expandDoc decodes a JSON scenario document and expands it.
func expandDoc(t *testing.T, doc string) []*scenario.Scenario {
	t.Helper()
	f, err := scenario.Decode([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	scs, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

// runRaw builds a throwaway orchestrator and runs the given scenarios.
func runRaw(t *testing.T, doc string) []*Result {
	t.Helper()
	o := &orchestrator{
		outDir:       t.TempDir(),
		fileDir:      t.TempDir(),
		timeoutScale: 1,
	}
	var out []*Result
	for _, sc := range expandDoc(t, doc) {
		out = append(out, o.runScenario(sc))
	}
	return out
}

// The end-to-end classification matrix uses raw scenarios so no repo
// binary needs to be built: a clean exit, a non-zero exit, a
// self-inflicted SIGSEGV and a sleep past its timeout must land in
// pass / failed / crash / timeout respectively — exactly the summary
// classes fleet's exit code is built on.
func TestRunScenarioClassification(t *testing.T) {
	doc := `{
	  "scenarios": [
	    {"id": "ok",      "tool": "raw", "argv": ["sh", "-c", "echo fine"]},
	    {"id": "exit3",   "tool": "raw", "argv": ["sh", "-c", "exit 3"]},
	    {"id": "segv",    "tool": "raw", "argv": ["sh", "-c", "kill -SEGV $$"]},
	    {"id": "hang",    "tool": "raw", "argv": ["sleep", "60"], "timeout": "300ms"},
	    {"id": "nostart", "tool": "raw", "argv": ["/nonexistent/binary-xyz"]}
	  ]
	}`
	res := runRaw(t, doc)
	want := map[string]Status{
		"ok": StatusPass, "exit3": StatusFailed, "segv": StatusCrash,
		"hang": StatusTimeout, "nostart": StatusError,
	}
	for _, r := range res {
		if r.Status != want[r.ID] {
			t.Errorf("%s: status = %s, want %s (detail: %s)", r.ID, r.Status, want[r.ID], r.Detail)
		}
	}
	if res[1].ExitCode != 3 {
		t.Errorf("exit3: exit code = %d, want 3", res[1].ExitCode)
	}
	if res[2].Signal == "" {
		t.Errorf("segv: signal not recorded")
	}
	if res[3].DurationMS > 10_000 {
		t.Errorf("hang: took %dms; timeout kill did not work", res[3].DurationMS)
	}
}

// A crash consumes the retry budget; deterministic failures do not.
func TestRetryPolicy(t *testing.T) {
	doc := `{
	  "scenarios": [
	    {"id": "crashy", "tool": "raw", "argv": ["sh", "-c", "kill -SEGV $$"], "retries": 2},
	    {"id": "faily",  "tool": "raw", "argv": ["sh", "-c", "exit 1"],       "retries": 2}
	  ]
	}`
	res := runRaw(t, doc)
	if res[0].Status != StatusCrash || res[0].Attempts != 3 {
		t.Errorf("crashy: status %s attempts %d, want crash after 3", res[0].Status, res[0].Attempts)
	}
	if res[1].Status != StatusFailed || res[1].Attempts != 1 {
		t.Errorf("faily: status %s attempts %d, want failed after 1", res[1].Status, res[1].Attempts)
	}
}

// Expected artifacts demote a pass when missing or empty; a directory
// artifact counts as empty when it holds no entries.
func TestArtifactCheck(t *testing.T) {
	doc := `{
	  "scenarios": [
	    {"id": "has",     "tool": "raw", "argv": ["sh", "-c", "echo data > out.txt"],          "artifacts": ["out.txt"]},
	    {"id": "has-dir", "tool": "raw", "argv": ["sh", "-c", "mkdir d && echo data > d/a"], "artifacts": ["d"]},
	    {"id": "empty",   "tool": "raw", "argv": ["sh", "-c", ": > out.txt"],                 "artifacts": ["out.txt"]},
	    {"id": "gone",    "tool": "raw", "argv": ["true"],                                    "artifacts": ["out.txt"]},
	    {"id": "bare-dir", "tool": "raw", "argv": ["mkdir", "d"],                             "artifacts": ["d"]}
	  ]
	}`
	res := runRaw(t, doc)
	for _, r := range res[:2] {
		if r.Status != StatusPass || len(r.Artifacts) != 1 {
			t.Errorf("%s: status %s artifacts %v", r.ID, r.Status, r.Artifacts)
		}
	}
	for _, r := range res[2:] {
		if r.Status != StatusFailed || len(r.Missing) != 1 {
			t.Errorf("%s: status %s missing %v, want failed with 1 missing", r.ID, r.Status, r.Missing)
		}
	}
}

// Golden flow end to end: match passes, drift is a golden-mismatch with
// a diff file, an absent golden is a mismatch, and -update-goldens
// writes the file.
func TestGoldenCheck(t *testing.T) {
	fileDir := t.TempDir()
	goldenDir := filepath.Join(fileDir, "golden")
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// The golden holds normalized output: header/footer lines stripped.
	if err := os.WriteFile(filepath.Join(goldenDir, "t.txt"), []byte("stable\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := &orchestrator{outDir: t.TempDir(), fileDir: fileDir, timeoutScale: 1}

	doc := `{
	  "scenarios": [
	    {"id": "match", "tool": "raw", "golden": "golden/t.txt",
	     "argv": ["sh", "-c", "echo '# Reproduction run now'; echo stable; echo '(T1 in 3ms)'"]},
	    {"id": "drift", "tool": "raw", "golden": "golden/t.txt",
	     "argv": ["sh", "-c", "echo changed"]},
	    {"id": "nogold", "tool": "raw", "golden": "golden/absent.txt",
	     "argv": ["sh", "-c", "echo whatever"]}
	  ]
	}`
	var res []*Result
	for _, sc := range expandDoc(t, doc) {
		res = append(res, o.runScenario(sc))
	}
	if res[0].Status != StatusPass {
		t.Errorf("match: status %s (%s)", res[0].Status, res[0].Detail)
	}
	if res[1].Status != StatusGoldenMismatch || res[1].GoldenDiff == "" {
		t.Errorf("drift: status %s diff %q", res[1].Status, res[1].GoldenDiff)
	}
	if _, err := os.Stat(filepath.Join(res[1].Dir, "golden.diff.txt")); err != nil {
		t.Errorf("drift: golden.diff.txt not written: %v", err)
	}
	if res[2].Status != StatusGoldenMismatch {
		t.Errorf("nogold: status %s, want golden-mismatch", res[2].Status)
	}

	// -update-goldens turns the absent golden into a checked-in file.
	o.updateGoldens = true
	for _, sc := range expandDoc(t, doc) {
		if sc.ID == "nogold" {
			r := o.runScenario(sc)
			if r.Status != StatusPass {
				t.Fatalf("update: status %s (%s)", r.Status, r.Detail)
			}
		}
	}
	b, err := os.ReadFile(filepath.Join(goldenDir, "absent.txt"))
	if err != nil || string(b) != "whatever\n" {
		t.Fatalf("update: golden = %q, err %v", b, err)
	}
}

// Matrix scenarios expand the {id} token in golden paths to the
// sanitized scenario ID, so one matrix block can pin one golden per
// expanded scenario.
func TestGoldenIDToken(t *testing.T) {
	fileDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(fileDir, "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fileDir, "golden", "m~V=1.txt"), []byte("one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := &orchestrator{outDir: t.TempDir(), fileDir: fileDir, timeoutScale: 1}
	doc := `{
	  "matrix": [
	    {"base": {"id": "m", "tool": "raw", "argv": ["sh", "-c", "echo one"], "golden": "golden/{id}.txt"},
	     "axes": {"env.V": ["1"]}}
	  ]
	}`
	scs := expandDoc(t, doc)
	if len(scs) != 1 || scs[0].ID != "m/V=1" {
		t.Fatalf("expansion: %v", scs[0].ID)
	}
	r := o.runScenario(scs[0])
	if r.Status != StatusPass {
		t.Fatalf("status %s (%s)", r.Status, r.Detail)
	}
	if r.GoldenPath != "golden/m~V=1.txt" {
		t.Fatalf("golden path = %q", r.GoldenPath)
	}
}

// The manifest must count every status and fail the run on any
// non-pass scenario — this is the bit fleet's exit code hangs off.
func TestManifestCounts(t *testing.T) {
	man := &Manifest{Counts: map[Status]int{}, Pass: true}
	for _, r := range []*Result{
		{Status: StatusPass}, {Status: StatusPass},
		{Status: StatusTimeout}, {Status: StatusCrash}, {Status: StatusGoldenMismatch},
	} {
		man.Counts[r.Status]++
		if r.Status != StatusPass {
			man.Pass = false
		}
	}
	if man.Pass {
		t.Fatal("manifest passed despite failures")
	}
	if man.Counts[StatusPass] != 2 || man.Counts[StatusTimeout] != 1 ||
		man.Counts[StatusCrash] != 1 || man.Counts[StatusGoldenMismatch] != 1 {
		t.Fatalf("counts: %v", man.Counts)
	}
}

// A timeout-scaled scenario still honors the scale factor.
func TestTimeoutScale(t *testing.T) {
	o := &orchestrator{outDir: t.TempDir(), fileDir: t.TempDir(), timeoutScale: 0.001}
	doc := `{"scenarios": [{"id": "slow", "tool": "raw", "argv": ["sleep", "30"], "timeout": "60s"}]}`
	start := time.Now()
	for _, sc := range expandDoc(t, doc) {
		if r := o.runScenario(sc); r.Status != StatusTimeout {
			t.Fatalf("status %s, want timeout", r.Status)
		}
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("timeout scale ignored; took %v", e)
	}
}

// A serving run passes only if the drain checkpoint records the daemon
// reaching stopped; a checkpoint without that transition, one cut short,
// or none at all fails it.
func TestCheckStopped(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, doc string
		ok        bool
	}{
		{"stopped", `{"transitions": ["starting", "ready", "draining", "stopped"]}`, true},
		{"no stopped", `{"transitions": ["starting", "ready", "draining"]}`, false},
		{"stopped not last", `{"transitions": ["stopped", "ready"]}`, false},
		{"no transitions", `{"uptime_seconds": 3}`, false},
		{"torn", `{"transitions": ["starting", "re`, false},
		{"absent", "", false},
	} {
		p := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
		if tc.doc != "" {
			if err := os.WriteFile(p, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkStopped(p); (err == nil) != tc.ok {
			t.Errorf("%s: checkStopped = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
