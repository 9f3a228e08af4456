// Command fleet is the multi-process experiment orchestrator: it
// expands a declarative scenario file (JSON or TOML, see
// internal/scenario) into concrete scenarios, fans them across N
// worker processes running the repo's own binaries (reproduce,
// nfvbench, kvsbench, isobench, or a slicekvsd+loadgen+statsink
// serving trio), enforces per-scenario timeouts with process-group
// kill, retries crashed scenarios, collects stdout/tables/metrics
// artifacts into per-scenario run directories with a merged
// manifest.json, diffs table output against checked-in goldens, and
// prints a final summary distinguishing pass / golden-mismatch /
// timeout / crash / failed with a non-zero exit if anything failed.
//
// Usage:
//
//	fleet -f scenarios/paper-quick.json [-workers 4] [-out DIR]
//	      [-bin DIR] [-match SUBSTR] [-run-seed N] [-timeout-scale X]
//	      [-list] [-update-goldens]
//
// Without -bin, fleet builds the needed tools once into <out>/bin with
// the local go toolchain. -list expands and prints the scenario table
// (IDs, tools, seeds, timeouts) without running anything. -match runs
// the subset of scenarios whose ID contains the substring.
//
// Expansion and seeding are deterministic (sorted-axis odometer order,
// per-scenario seeds f(runSeed, scenarioID, index)), so the manifest is
// reproducible for every -workers value; only wall-clock fields differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sliceaware/internal/parallel"
	"sliceaware/internal/scenario"
)

// orchestrator carries the per-invocation configuration shared by the
// scenario runners.
type orchestrator struct {
	outDir        string
	binDir        string
	fileDir       string // scenario-file directory; goldens resolve here
	timeoutScale  float64
	updateGoldens bool

	mu sync.Mutex // serializes progress logging
}

func (o *orchestrator) logf(format string, a ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	fmt.Printf(format+"\n", a...)
}

// bin returns the path of one of the repo's own binaries.
func (o *orchestrator) bin(tool string) string {
	return filepath.Join(o.binDir, tool)
}

// scenarioDir maps a scenario ID to its run directory. Matrix IDs
// contain '/'; flatten them so every scenario is one directory level.
func (o *orchestrator) scenarioDir(sc *scenario.Scenario) string {
	return filepath.Join(o.outDir, sanitizeID(sc.ID))
}

func sanitizeID(id string) string {
	return strings.ReplaceAll(id, "/", "~")
}

// Manifest is the merged run document written to <out>/manifest.json.
type Manifest struct {
	Name      string         `json:"name"`
	File      string         `json:"file"`
	RunSeed   int64          `json:"run_seed"`
	Workers   int            `json:"workers"` // the -workers flag; 0 = GOMAXPROCS
	Started   time.Time      `json:"started"`
	Duration  string         `json:"duration"`
	Counts    map[Status]int `json:"counts"`
	Pass      bool           `json:"pass"`
	Scenarios []*Result      `json:"scenarios"`
}

// toolsNeeded collects the repo binaries the scenario list requires.
func toolsNeeded(scs []*scenario.Scenario) []string {
	need := map[string]bool{}
	for _, sc := range scs {
		switch sc.Tool {
		case "raw":
		case "serving":
			need["slicekvsd"] = true
			need["slicekvs-loadgen"] = true
			if sc.Serving.Statsink {
				need["statsink"] = true
			}
		default:
			need[sc.Tool] = true
		}
	}
	out := make([]string, 0, len(need))
	for t := range need {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// buildTools compiles the needed cmd/ binaries once into binDir.
func buildTools(binDir string, tools []string) error {
	if len(tools) == 0 {
		return nil
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	repoRoot, err := moduleRoot()
	if err != nil {
		return err
	}
	for _, t := range tools {
		dest, err := filepath.Abs(filepath.Join(binDir, t))
		if err != nil {
			return err
		}
		cmd := exec.Command("go", "build", "-o", dest, "./cmd/"+t)
		cmd.Dir = repoRoot
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/%s: %v\n%s", t, err, out)
		}
	}
	return nil
}

// moduleRoot finds the repo root so fleet works from any cwd.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
		return "", fmt.Errorf("fleet must run inside the sliceaware module (go.mod not found)")
	}
	return filepath.Dir(gomod), nil
}

func main() {
	file := flag.String("f", "", "scenario file (.json or .toml)")
	workers := flag.Int("workers", 2, "concurrent scenario processes (0 = GOMAXPROCS)")
	outDir := flag.String("out", "", "run directory root (default fleet-out/<file name>)")
	binDir := flag.String("bin", "", "directory with prebuilt repo binaries (default: build into <out>/bin)")
	match := flag.String("match", "", "only run scenarios whose ID contains this substring")
	runSeed := flag.Int64("run-seed", 0, "override the file's run_seed (0 keeps the file's value)")
	timeoutScale := flag.Float64("timeout-scale", 1, "multiply every per-scenario timeout (slow CI escape hatch)")
	list := flag.Bool("list", false, "expand the scenario file, print the table, and exit")
	updateGoldens := flag.Bool("update-goldens", false, "rewrite golden files from this run's normalized output")
	flag.Parse()

	if *file == "" {
		fmt.Fprintln(os.Stderr, "fleet: -f scenario file is required")
		flag.Usage()
		os.Exit(2)
	}
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		os.Exit(2)
	}

	f, err := scenario.Load(*file)
	if err != nil {
		fatal(err)
	}
	if *runSeed != 0 {
		f.RunSeed = *runSeed
	}
	scs, err := f.Expand()
	if err != nil {
		fatal(err)
	}
	if *match != "" {
		kept := scs[:0]
		for _, sc := range scs {
			if strings.Contains(sc.ID, *match) {
				kept = append(kept, sc)
			}
		}
		if len(kept) == 0 {
			fatal(fmt.Errorf("-match %q selects no scenarios", *match))
		}
		scs = kept
	}

	if *list {
		fmt.Printf("# %s — %d scenario(s), run_seed %d\n", f.Name, len(scs), f.RunSeed)
		for _, sc := range scs {
			seed := fmt.Sprintf("%d", sc.Seed)
			if sc.SeedDerived {
				seed += " (derived)"
			}
			fmt.Printf("%-4d %-44s %-10s timeout=%-8s seed=%s\n", sc.Index, sc.ID, sc.Tool, sc.TimeoutNS, seed)
		}
		return
	}

	o := &orchestrator{
		fileDir:       f.Dir,
		timeoutScale:  *timeoutScale,
		updateGoldens: *updateGoldens,
	}
	if o.outDir = *outDir; o.outDir == "" {
		o.outDir = filepath.Join("fleet-out", f.Name)
	}
	if err := prepareOutDir(o.outDir); err != nil {
		fatal(err)
	}
	// Distinct IDs must land in distinct directories even after
	// sanitizing the matrix '/' separators.
	dirs := map[string]string{}
	for _, sc := range scs {
		d := o.scenarioDir(sc)
		if prev, dup := dirs[d]; dup {
			fatal(fmt.Errorf("scenarios %q and %q collide on run directory %s", prev, sc.ID, d))
		}
		dirs[d] = sc.ID
	}

	if o.binDir = *binDir; o.binDir == "" {
		o.binDir = filepath.Join(o.outDir, "bin")
		tools := toolsNeeded(scs)
		if len(tools) > 0 {
			o.logf("fleet: building %s", strings.Join(tools, " "))
			if err := buildTools(o.binDir, tools); err != nil {
				fatal(err)
			}
		}
	}
	if abs, err := filepath.Abs(o.binDir); err == nil {
		o.binDir = abs // scenario processes run with cwd = their run dir
	}
	if abs, err := filepath.Abs(o.fileDir); err == nil {
		o.fileDir = abs
	}

	o.logf("fleet: %s — %d scenario(s), -workers %d", f.Name, len(scs), *workers)
	started := time.Now()
	results, _ := parallel.Map(*workers, len(scs), func(i int) (*Result, error) {
		sc := scs[i]
		res := o.runScenario(sc)
		o.logf("fleet: [%d/%d] %-15s %s (%s)", sc.Index+1, len(scs), res.Status, sc.ID, time.Duration(res.DurationMS)*time.Millisecond)
		return res, nil
	})

	man := &Manifest{
		Name:      f.Name,
		File:      *file,
		RunSeed:   f.RunSeed,
		Workers:   *workers,
		Started:   started.UTC(),
		Duration:  time.Since(started).Round(time.Millisecond).String(),
		Counts:    map[Status]int{},
		Pass:      true,
		Scenarios: results,
	}
	for _, r := range results {
		man.Counts[r.Status]++
		if r.Status != StatusPass {
			man.Pass = false
		}
	}
	if err := writeManifest(filepath.Join(o.outDir, "manifest.json"), man); err != nil {
		fatal(err)
	}

	printSummary(man)
	if !man.Pass {
		os.Exit(1)
	}
}

// prepareOutDir creates the run root, refusing to clobber a directory
// that is not a previous fleet run.
func prepareOutDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		return err
	}
	if len(entries) > 0 {
		if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
			return fmt.Errorf("out dir %s is non-empty and has no manifest.json; refusing to overwrite", dir)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return os.MkdirAll(dir, 0o755)
}

func writeManifest(path string, man *Manifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printSummary renders the final per-scenario table plus totals.
func printSummary(man *Manifest) {
	fmt.Printf("\n== fleet summary: %s (%d scenario(s), %s) ==\n", man.Name, len(man.Scenarios), man.Duration)
	idW := len("scenario")
	for _, r := range man.Scenarios {
		if len(r.ID) > idW {
			idW = len(r.ID)
		}
	}
	fmt.Printf("%-*s  %-15s  %-9s  %s\n", idW, "scenario", "status", "time", "detail")
	for _, r := range man.Scenarios {
		detail := r.Detail
		if r.Attempts > 1 {
			detail = strings.TrimPrefix(detail+fmt.Sprintf(" [after %d attempts]", r.Attempts), " ")
		}
		fmt.Printf("%-*s  %-15s  %-9s  %s\n", idW, r.ID, r.Status,
			(time.Duration(r.DurationMS) * time.Millisecond).String(), detail)
	}
	var parts []string
	for _, s := range []Status{StatusPass, StatusGoldenMismatch, StatusTimeout, StatusCrash, StatusFailed, StatusError} {
		if n := man.Counts[s]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, s))
		}
	}
	verdict := "PASS"
	if !man.Pass {
		verdict = "FAIL"
	}
	fmt.Printf("total: %s — %s\n", strings.Join(parts, ", "), verdict)
}
