// Command bench is the repository's one benchmark: four workloads
// (repro-full, nfv-chain, serve-read, serve-write-wal), the end-to-end
// metrics a user of the reproduction or of slicekvsd feels, and a per-layer
// budget under each from a separate traced run. BENCHMARK.json at the
// repository root is the catalogue of workloads, metrics, units and bounds;
// this program reads it, emits exactly those names, and README.md in this
// directory says what each one means on each workload.
//
//	bash bench/run.sh                              every workload, untraced then traced
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -compare A.json B.json       apply the bounds to two result documents
//	bash bench/run.sh -smoke                       every workload at about 1/20 size, traced
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) def(name string) (metricDef, bool) {
	for _, group := range [][]metricDef{m.EndToEnd, m.PerLayer} {
		for _, d := range group {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// Env records where a result document was measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
	Caveats    string `json:"caveats"`
}

const sandboxCaveats = "host times are this sandbox's: requests cross TCP loopback, not a link; " +
	"the WAL's fsync lands in the OS page cache of the sandbox's disk, not on a device; " +
	"metrics marked sim are simulated-machine quantities and repeat exactly for a seed"

func recordEnv(root string) Env {
	e := Env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", GitCommit: "unknown", Caveats: sandboxCaveats,
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	return e
}

// WorkloadResult is one workload's section of a result document.
type WorkloadResult struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// OutputSHA256 digests the workload's simulated output (normalised
	// reproduce stdout; per-run netsim results). Empty where every output
	// is host-timed.
	OutputSHA256 string `json:"output_sha256,omitempty"`
	// EndToEnd holds each end-to-end metric over the workload's repeats,
	// measured with tracing off. PerLayer comes from the traced run.
	EndToEnd map[string]Summary `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Notes carries what a reader needs next to the numbers: which
	// percentile lat_tail_us is and over how many samples, run counts.
	Notes map[string]float64 `json:"notes,omitempty"`
}

func (w *WorkloadResult) problem(format string, a ...any) {
	w.Correct = false
	if len(w.Problems) < 20 { // the first few say what broke; the count is in Failed
		w.Problems = append(w.Problems, fmt.Sprintf(format, a...))
	}
}

func (w *WorkloadResult) note(k string, v float64) {
	if w.Notes == nil {
		w.Notes = map[string]float64{}
	}
	w.Notes[k] = v
}

// Document is the result document of one harness run.
type Document struct {
	Env       Env               `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	BuildS    float64           `json:"build_s"`
	SimNames  []string          `json:"sim_metrics"`
	Workloads []*WorkloadResult `json:"workloads"`
}

// sizing is how much work each workload does; -smoke shrinks it.
type sizing struct {
	seconds       float64 // measured seconds per workload, split over its repeats
	repeats       int
	reproScale    string
	setupLaunches int    // extra reproduce launches timed for setup_s
	pktsPerRun    int    // packets per netsim.RunRate call
	simRuns       int    // leading runs whose simulated results are pooled and digested
	replayRuns    int    // runs replayed stage by stage in the traced run
	keys          uint64 // slicekvsd keyspace
	warmupReqs    int    // per connection, before the measured window
	sampleKeys    int    // keys read back after the restart
	kernelOps     int    // operations per in-process kernel pass
	kernelPasses  int
	snapshotKeys  int
	recoverRecs   int
	flushRecs     int // records journaled to time appends and group commits
	versionProbes int
}

func fullSizing(seconds float64) sizing {
	return sizing{
		seconds: seconds, repeats: 5, reproScale: "full", setupLaunches: 24,
		pktsPerRun: 50000, simRuns: 20, replayRuns: 4,
		keys: 65536, warmupReqs: 4096, sampleKeys: 4096,
		kernelOps: 200000, kernelPasses: 5, snapshotKeys: 65536, recoverRecs: 8192, flushRecs: 65536, versionProbes: 20000,
	}
}

func smokeSizing() sizing {
	return sizing{
		seconds: 0.75, repeats: 1, reproScale: "quick", setupLaunches: 2,
		pktsPerRun: 2500, simRuns: 2, replayRuns: 1,
		keys: 65536, warmupReqs: 400, sampleKeys: 256,
		kernelOps: 10000, kernelPasses: 1, snapshotKeys: 4096, recoverRecs: 512, flushRecs: 2048, versionProbes: 1000,
	}
}

// harness is the state one run of the benchmark shares across workloads.
type harness struct {
	bin   string // built reproduce and slicekvsd
	tmp   string // WAL directories and daemon logs; removed on exit
	seed  int64
	size  sizing
	spans *spanRecorder // nil on untraced runs
}

func (h *harness) logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
}

// workload is one named set of inputs. measure runs it with tracing off
// and fills the end-to-end metrics; trace runs it once more with spans and
// stage timing on and fills the per-layer metrics.
type workload struct {
	name    string
	measure func(h *harness, res *WorkloadResult) error
	trace   func(h *harness, res *WorkloadResult) error
}

var workloads = []workload{
	{"repro-full", measureRepro, traceRepro},
	{"nfv-chain", measureNFV, traceNFV},
	serveWorkload(serveSpec{name: "serve-read"}),
	serveWorkload(serveSpec{name: "serve-write-wal", write: true}),
}

func findRoot(start string) (string, error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or any parent; pass -root")
		}
		dir = parent
	}
}

// buildPrograms compiles the two programs under test from the checkout.
func buildPrograms(root, bin string) (float64, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/reproduce", "./cmd/slicekvsd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/reproduce ./cmd/slicekvsd: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	rootFlag := fs.String("root", "", "repository checkout (default: nearest parent holding BENCHMARK.json)")
	wlFlag := fs.String("workload", "", "one workload by name (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	traceFlag := fs.Int("trace", -1, "0 end-to-end metrics only, 1 per-layer metrics only (default: both)")
	outFlag := fs.String("out", "", "result document path (default: .bench_build/results/<label>.json)")
	compare := fs.Bool("compare", false, "compare two result documents: bench -compare A.json B.json")
	smoke := fs.Bool("smoke", false, "every workload at about 1/20 size, one repeat, traced")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return status
	}

	root := *rootFlag
	if root == "" {
		var err error
		if root, err = findRoot("."); err != nil {
			return fail(2, err)
		}
	}
	man, err := loadManifest(root)
	if err != nil {
		return fail(2, err)
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(2, errors.New("usage: bench -compare A.json B.json"))
		}
		return compareFiles(man, fs.Arg(0), fs.Arg(1), stdout)
	}

	var selected []workload
	for _, w := range workloads {
		if *wlFlag == "" || *wlFlag == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fail(2, fmt.Errorf("unknown workload %q", *wlFlag))
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	size := fullSizing(*seconds)
	if *smoke {
		size = smokeSizing()
		*traceFlag = -1
	}

	build := filepath.Join(root, ".bench_build")
	h := &harness{bin: filepath.Join(build, "bin"), seed: *seed, size: size}
	for _, dir := range []string{h.bin, filepath.Join(build, "results")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(1, err)
		}
	}
	if h.tmp, err = os.MkdirTemp(build, "run-"); err != nil {
		return fail(1, err)
	}
	cleanup := func() { os.RemoveAll(h.tmp) }
	stopSignals := killChildrenOnSignal(cleanup)
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintln(os.Stderr, "bench: panic:", p)
			code = 1
		}
		stopSignals()
		killChildren()
		cleanup()
	}()

	doc := &Document{Env: recordEnv(root), Seed: *seed, Seconds: size.seconds, SimNames: sortedKeys(simMetrics)}
	if doc.BuildS, err = buildPrograms(root, h.bin); err != nil {
		return fail(1, err)
	}
	h.logf("built reproduce and slicekvsd in %.1f s (informational)", doc.BuildS)

	recorder := newSpanRecorder()
	for _, w := range selected {
		res := &WorkloadResult{Name: w.name, Correct: true}
		doc.Workloads = append(doc.Workloads, res)
		if *traceFlag != 1 {
			h.logf("%s: measuring (tracing off)", w.name)
			h.spans = nil // end-to-end numbers are taken with the recorder off
			if err := w.measure(h, res); err != nil {
				return fail(1, fmt.Errorf("%s: %w", w.name, err))
			}
		}
		if *traceFlag != 0 {
			h.logf("%s: traced run", w.name)
			h.spans = recorder
			if err := w.trace(h, res); err != nil {
				return fail(1, fmt.Errorf("%s (traced): %w", w.name, err))
			}
		}
	}

	out := *outFlag
	if out == "" {
		label := fmt.Sprintf("%s-seed%d-trace%d", orAll(*wlFlag), *seed, *traceFlag)
		if *smoke {
			label = "smoke"
		}
		out = filepath.Join(build, "results", label+".json")
	}
	if err := writeDocument(doc, out); err != nil {
		return fail(1, err)
	}
	if *traceFlag != 0 {
		if err := recorder.write(strings.TrimSuffix(out, ".json") + ".spans.json"); err != nil {
			return fail(1, err)
		}
	}
	if err := checkNames(man, doc, *traceFlag); err != nil {
		return fail(1, err)
	}
	printTable(stdout, man, doc)
	fmt.Fprintf(stdout, "result document: %s\n", out)
	for _, res := range doc.Workloads {
		if !res.Correct {
			code = 1
		}
	}
	if *wlFlag != "" && *traceFlag >= 0 {
		// The driver's contract: the last line of standard output is the
		// run's result as one JSON object.
		fmt.Fprintln(stdout, resultLine(man, doc.Workloads[0], *traceFlag == 1))
	}
	return code
}

func orAll(s string) string {
	if s == "" {
		return "all"
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkNames fails the run if the harness produced a metric BENCHMARK.json
// does not list, or left an end-to-end metric out.
func checkNames(man *manifest, doc *Document, trace int) error {
	for _, res := range doc.Workloads {
		for _, name := range append(sortedKeys(res.EndToEnd), sortedKeys(res.PerLayer)...) {
			if _, ok := man.def(name); !ok {
				return fmt.Errorf("%s emitted metric %q, which BENCHMARK.json does not list", res.Name, name)
			}
		}
		if trace == 1 {
			continue
		}
		for _, d := range man.EndToEnd {
			if _, ok := res.EndToEnd[d.Name]; !ok {
				return fmt.Errorf("%s did not emit end-to-end metric %q", res.Name, d.Name)
			}
		}
	}
	return nil
}

func writeDocument(doc *Document, path string) error {
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readDocument(path string) (*Document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// printTable prints every metric by name with its unit.
func printTable(w io.Writer, man *manifest, doc *Document) {
	for _, res := range doc.Workloads {
		fmt.Fprintf(w, "\n== %s  (seed %d, correct %v, attempted %d, failed %d)\n",
			res.Name, doc.Seed, res.Correct, res.Attempted, res.Failed)
		for _, p := range res.Problems {
			fmt.Fprintf(w, "   PROBLEM: %s\n", p)
		}
		if res.OutputSHA256 != "" {
			fmt.Fprintf(w, "   output_sha256 %s\n", res.OutputSHA256)
		}
		for _, d := range man.EndToEnd {
			if s, ok := res.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "   %-40s %14.6g %-6s (min %.6g, max %.6g, n %d)\n", d.Name, s.Median, d.Unit, s.Min, s.Max, s.N)
			}
		}
		for _, d := range man.PerLayer {
			if v, ok := res.PerLayer[d.Name]; ok {
				tag := ""
				if simMetrics[d.Name] {
					tag = " sim"
				}
				fmt.Fprintf(w, "   %-40s %14.6g %s%s\n", d.Name, v, d.Unit, tag)
			}
		}
		for _, k := range sortedKeys(res.Notes) {
			fmt.Fprintf(w, "   note %-35s %14.6g\n", k, res.Notes[k])
		}
	}
	fmt.Fprintf(w, "\n%s\n", doc.Env.Caveats)
}

// resultLine renders the one-object summary the driver reads.
func resultLine(man *manifest, res *WorkloadResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		// Every per-layer name goes out on every traced run; a layer the
		// workload does not run (the WAL on serve-read, the daemon on
		// nfv-chain) reads 0.
		for _, d := range man.PerLayer {
			metrics[d.Name] = value{res.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range man.EndToEnd {
			metrics[d.Name] = value{res.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(raw)
}
