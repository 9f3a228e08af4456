package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sliceaware/internal/scenario"
)

// Status classifies one scenario's outcome in the fleet summary.
type Status string

const (
	// StatusPass: process(es) exited 0, golden matched, artifacts present.
	StatusPass Status = "pass"
	// StatusGoldenMismatch: run succeeded but normalized stdout differs
	// from the checked-in golden.
	StatusGoldenMismatch Status = "golden-mismatch"
	// StatusTimeout: the per-scenario timeout expired and the process
	// group was killed.
	StatusTimeout Status = "timeout"
	// StatusCrash: a process died on a signal it did not ask for
	// (SIGSEGV, SIGKILL from outside, panic-abort).
	StatusCrash Status = "crash"
	// StatusFailed: a process exited non-zero, or a trio assertion
	// (readiness, drain walk, expected artifact) did not hold.
	StatusFailed Status = "failed"
	// StatusError: the orchestrator could not even start the scenario.
	StatusError Status = "error"
)

// classify maps raw process evidence to a Status. Precedence: a start
// failure hides everything, an orchestrator-initiated timeout kill must
// not read as a crash, and only a clean exit can pass.
func classify(startErr error, timedOut, signaled bool, exitCode int) Status {
	switch {
	case startErr != nil:
		return StatusError
	case timedOut:
		return StatusTimeout
	case signaled:
		return StatusCrash
	case exitCode != 0:
		return StatusFailed
	default:
		return StatusPass
	}
}

// retryable reports whether a status is worth a re-run: crashes are
// treated as transient (stray signal, OOM-kill of a neighbour);
// deterministic failures, timeouts and mismatches are not.
func retryable(s Status) bool { return s == StatusCrash }

// Result is one scenario's manifest entry.
type Result struct {
	ID          string   `json:"id"`
	Index       int      `json:"index"`
	Tool        string   `json:"tool"`
	Seed        int64    `json:"seed"`
	SeedDerived bool     `json:"seed_derived"`
	Status      Status   `json:"status"`
	ExitCode    int      `json:"exit_code"`
	Signal      string   `json:"signal,omitempty"`
	Attempts    int      `json:"attempts"`
	DurationMS  int64    `json:"duration_ms"`
	Detail      string   `json:"detail,omitempty"`
	GoldenPath  string   `json:"golden,omitempty"`
	GoldenDiff  string   `json:"golden_diff,omitempty"`
	Artifacts   []string `json:"artifacts,omitempty"`
	Missing     []string `json:"missing_artifacts,omitempty"`
	Dir         string   `json:"dir"`
}

// procOutcome is the raw evidence of one child process run.
type procOutcome struct {
	startErr error
	timedOut bool
	signaled bool
	signal   string
	exitCode int
}

func (o procOutcome) status() Status {
	return classify(o.startErr, o.timedOut, o.signaled, o.exitCode)
}

// runOnce executes argv in dir with stdout/stderr files and a deadline;
// the whole process group is killed on expiry.
func runOnce(argv []string, dir string, env map[string]string, stdoutPath, stderrPath string, timeout time.Duration) procOutcome {
	var out procOutcome
	stdout, err := os.Create(stdoutPath)
	if err != nil {
		out.startErr = err
		return out
	}
	defer stdout.Close()
	stderr, err := os.Create(stderrPath)
	if err != nil {
		out.startErr = err
		return out
	}
	defer stderr.Close()

	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Dir = dir
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	cmd.Env = mergedEnv(env)
	setProcGroup(cmd)
	if err := cmd.Start(); err != nil {
		out.startErr = err
		return out
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var waitErr error
	select {
	case waitErr = <-done:
	case <-time.After(timeout):
		out.timedOut = true
		killGroup(cmd)
		waitErr = <-done
	}
	if waitErr != nil {
		out.signaled, out.signal = exitSignaled(waitErr)
		if ee, ok := waitErr.(*exec.ExitError); ok {
			out.exitCode = ee.ExitCode()
		} else {
			out.startErr = waitErr
		}
	}
	// A kill we sent ourselves is a timeout, not a crash.
	if out.timedOut {
		out.signaled = false
	}
	return out
}

func mergedEnv(extra map[string]string) []string {
	env := os.Environ()
	for _, k := range sortedKeys(extra) {
		env = append(env, k+"="+extra[k])
	}
	return env
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// runScenario executes one concrete scenario in its own run directory
// and returns the manifest entry. Crashed attempts are retried up to
// the scenario's retry budget.
func (o *orchestrator) runScenario(sc *scenario.Scenario) *Result {
	res := &Result{
		ID:          sc.ID,
		Index:       sc.Index,
		Tool:        sc.Tool,
		Seed:        sc.Seed,
		SeedDerived: sc.SeedDerived,
		GoldenPath:  sc.Golden,
		Dir:         o.scenarioDir(sc),
	}
	start := time.Now()
	defer func() { res.DurationMS = time.Since(start).Milliseconds() }()

	timeout := time.Duration(float64(sc.TimeoutNS) * o.timeoutScale)
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		// A retry starts from a clean directory so partial artifacts of
		// the crashed attempt cannot leak into collection.
		if err := recreateDir(res.Dir); err != nil {
			res.Status = StatusError
			res.Detail = err.Error()
			return res
		}
		var out procOutcome
		var detail string
		if sc.Tool == "serving" {
			out, detail = o.runServing(sc, res.Dir, timeout)
		} else {
			argv := o.argvFor(sc)
			out = runOnce(argv, res.Dir, sc.Env, filepath.Join(res.Dir, "stdout.txt"), filepath.Join(res.Dir, "stderr.txt"), timeout)
			detail = describeOutcome(out)
		}
		res.Status = out.status()
		res.ExitCode = out.exitCode
		res.Signal = out.signal
		res.Detail = detail
		if !retryable(res.Status) || attempt > sc.Retries {
			break
		}
		o.logf("retry %s (attempt %d/%d): %s", sc.ID, attempt+1, sc.Retries+1, res.Detail)
	}

	if res.Status == StatusPass {
		o.checkArtifacts(sc, res)
	}
	if res.Status == StatusPass && sc.Golden != "" {
		o.checkGolden(sc, res)
	}
	return res
}

// argvFor renders the command line of a single-binary scenario.
func (o *orchestrator) argvFor(sc *scenario.Scenario) []string {
	if sc.Tool == "raw" {
		return sc.Argv
	}
	return append([]string{o.bin(sc.Tool)}, sc.Args...)
}

func describeOutcome(out procOutcome) string {
	switch {
	case out.startErr != nil:
		return "start: " + out.startErr.Error()
	case out.timedOut:
		return "killed by per-scenario timeout"
	case out.signaled:
		return "died on " + out.signal
	case out.exitCode != 0:
		return fmt.Sprintf("exited %d", out.exitCode)
	default:
		return ""
	}
}

// checkArtifacts demotes a pass when an expected artifact is missing or
// empty (a file of no bytes, a directory of no entries), and records the
// produced ones.
func (o *orchestrator) checkArtifacts(sc *scenario.Scenario, res *Result) {
	for _, a := range sc.Artifacts {
		p := filepath.Join(res.Dir, filepath.FromSlash(a))
		if !nonEmpty(p) {
			res.Missing = append(res.Missing, a)
			continue
		}
		res.Artifacts = append(res.Artifacts, a)
	}
	if len(res.Missing) > 0 {
		res.Status = StatusFailed
		appendDetail(res, "missing artifact(s): "+strings.Join(res.Missing, ", "))
	}
}

// nonEmpty reports whether p is a file holding bytes or a directory
// holding entries.
func nonEmpty(p string) bool {
	st, err := os.Stat(p)
	if err != nil {
		return false
	}
	if st.IsDir() {
		ents, err := os.ReadDir(p)
		return err == nil && len(ents) > 0
	}
	return st.Size() > 0
}

// checkGolden diffs the normalized stdout against the checked-in
// golden (or rewrites the golden with -update-goldens). An "{id}"
// token in the golden path expands to the sanitized scenario ID, so
// matrix blocks can declare one golden per expanded scenario.
func (o *orchestrator) checkGolden(sc *scenario.Scenario, res *Result) {
	goldenRel := strings.ReplaceAll(sc.Golden, "{id}", sanitizeID(sc.ID))
	res.GoldenPath = goldenRel
	goldenPath := filepath.Join(o.fileDir, filepath.FromSlash(goldenRel))
	rawOut, err := os.ReadFile(filepath.Join(res.Dir, "stdout.txt"))
	if err != nil {
		res.Status = StatusError
		appendDetail(res, "golden: "+err.Error())
		return
	}
	norm := normalizeOutput(rawOut)
	normPath := filepath.Join(res.Dir, "stdout.normalized.txt")
	if err := os.WriteFile(normPath, norm, 0o644); err != nil {
		res.Status = StatusError
		appendDetail(res, "golden: "+err.Error())
		return
	}
	if o.updateGoldens {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err == nil {
			err = os.WriteFile(goldenPath, norm, 0o644)
		}
		if err != nil {
			res.Status = StatusError
			appendDetail(res, "golden update: "+err.Error())
			return
		}
		appendDetail(res, "golden updated")
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		res.Status = StatusGoldenMismatch
		appendDetail(res, "golden missing: "+err.Error())
		return
	}
	if diff := firstDiff(want, norm); diff != "" {
		res.Status = StatusGoldenMismatch
		res.GoldenDiff = diff
		appendDetail(res, "stdout differs from "+goldenRel)
		_ = os.WriteFile(filepath.Join(res.Dir, "golden.diff.txt"), []byte(diff), 0o644)
	}
}

func appendDetail(res *Result, s string) {
	if res.Detail == "" {
		res.Detail = s
		return
	}
	res.Detail += "; " + s
}

func recreateDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
