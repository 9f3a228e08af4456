package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// The repro-full workload: the whole reproduction as a child process, the
// wall-clock a user of this repository feels. One operation is one
// experiment of the catalogue (31 today).

// tracedExperiments are the experiments the traced run reports by name;
// the others are summed into experiments.rest.host_s.
var tracedExperiments = []string{"F7", "F14", "F8", "F13", "F6", "F15", "F17", "S8V", "S7H", "F-TENANT"}

var footerRE = regexp.MustCompile(`^\((\S+) in ([^)]+)\)$`)

// parseFooter recognises reproduce's per-experiment footer, "(F7 in
// 7.406s)", and returns the ID and the host seconds it took.
func parseFooter(line string) (id string, seconds float64, ok bool) {
	m := footerRE.FindStringSubmatch(line)
	if m == nil {
		return "", 0, false
	}
	d, err := time.ParseDuration(m[2])
	if err != nil {
		return "", 0, false
	}
	return m[1], d.Seconds(), true
}

// reproRun is what one execution of reproduce yielded.
type reproRun struct {
	headerS float64 // launch until the header line arrived
	wallS   float64
	cpuS    float64
	rssMiB  float64
	footers map[string]float64 // experiment ID to host seconds
	order   []string           // footer IDs in output order
	sha     string             // digest of the normalised standard output
	stderr  string
	exitErr error
}

// runReproduce executes the reproduce binary and digests its output the way
// `make determinism` normalises it: the header line and the footers, which
// carry host times, are left out.
func runReproduce(h *harness, args ...string) (*reproRun, error) {
	cmd := exec.Command(filepath.Join(h.bin, "reproduce"), args...)
	// A pipe of our own, not StdoutPipe: the child is reaped in the
	// background, and Wait would close StdoutPipe under the scanner.
	stdout, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = pw, &stderr
	start := time.Now()
	proc, err := startChild(cmd)
	pw.Close() // the child holds the write end now; EOF arrives when it exits
	if err != nil {
		return nil, fmt.Errorf("start reproduce: %w", err)
	}
	r := &reproRun{footers: map[string]float64{}}
	digest := sha256.New()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			r.headerS = time.Since(start).Seconds()
			if strings.HasPrefix(line, "# Reproduction run") {
				continue
			}
		}
		if id, secs, ok := parseFooter(line); ok {
			r.footers[id] = secs
			r.order = append(r.order, id)
			continue
		}
		digest.Write([]byte(line))
		digest.Write([]byte{'\n'})
	}
	scanErr := sc.Err()
	r.exitErr = proc.wait(170 * time.Second)
	r.wallS = time.Since(start).Seconds()
	if scanErr != nil {
		return nil, fmt.Errorf("read reproduce output: %w", scanErr)
	}
	if cmd.ProcessState != nil {
		r.cpuS, r.rssMiB = exitedUsage(cmd.ProcessState)
	}
	r.sha = hex.EncodeToString(digest.Sum(nil))
	r.stderr = stderr.String()
	return r, nil
}

// catalogIDs asks the binary which experiments exist, so the correctness
// check follows the catalogue instead of a hardcoded list.
func catalogIDs(h *harness) ([]string, error) {
	out, err := exec.Command(filepath.Join(h.bin, "reproduce"), "-list").Output()
	if err != nil {
		return nil, fmt.Errorf("reproduce -list: %w", err)
	}
	var entries []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &entries); err != nil {
		return nil, fmt.Errorf("reproduce -list: %w", err)
	}
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	return ids, nil
}

// checkRepro counts the experiments that did not finish and records why the
// run is not correct, if it is not.
func checkRepro(res *WorkloadResult, ids []string, r *reproRun) {
	res.Attempted += int64(len(ids))
	for _, id := range ids {
		if _, ok := r.footers[id]; !ok {
			res.Failed++
			res.problem("experiment %s printed no footer", id)
		}
	}
	if r.exitErr != nil {
		res.problem("reproduce: %v", r.exitErr)
	}
	if s := strings.TrimSpace(r.stderr); s != "" {
		res.problem("reproduce wrote to stderr: %.200s", s)
	}
}

func (h *harness) reproArgs(jobs int) []string {
	return []string{"-scale", h.size.reproScale, "-all", "-seed", strconv.FormatInt(h.seed, 10), "-jobs", strconv.Itoa(jobs)}
}

// launchLatencies times reproduce from launch to its header line on runs
// that do almost nothing else (T1 is a static table).
func launchLatencies(h *harness, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		r, err := runReproduce(h, "-scale", h.size.reproScale, "-only", "T1", "-seed", strconv.FormatInt(h.seed, 10))
		if err != nil {
			return nil, err
		}
		if r.exitErr != nil {
			return nil, fmt.Errorf("reproduce -only T1: %v", r.exitErr)
		}
		out = append(out, r.headerS)
	}
	return out, nil
}

func measureRepro(h *harness, res *WorkloadResult) error {
	ids, err := catalogIDs(h)
	if err != nil {
		return err
	}
	setup, err := launchLatencies(h, h.size.setupLaunches)
	if err != nil {
		return err
	}
	// Whole reproductions back to back until the measuring time is used up,
	// and at least one: at full scale one run outlasts run_seconds. The
	// caller waits for the whole run, so a run is one slice and its median
	// and tail latency are both the run's wall-clock.
	var repeats [][]slice
	began := time.Now()
	for len(repeats) == 0 || time.Since(began).Seconds() < h.size.seconds {
		r, err := runReproduce(h, h.reproArgs(0)...)
		if err != nil {
			return err
		}
		checkRepro(res, ids, r)
		if res.OutputSHA256 != "" && res.OutputSHA256 != r.sha {
			res.problem("two runs at one seed printed different tables: %s then %s", res.OutputSHA256, r.sha)
		}
		res.OutputSHA256 = r.sha
		if len(r.footers) == 0 {
			return fmt.Errorf("reproduce finished no experiment: %v; stderr: %.300s", r.exitErr, r.stderr)
		}
		setup = append(setup, r.headerS)
		repeats = append(repeats, []slice{{
			ops: float64(len(r.footers)), wallS: r.wallS, cpuS: r.cpuS, p50Us: r.wallS * 1e6, tailUs: r.wallS * 1e6,
		}})
		res.note("wall_s", r.wallS)
		res.note("cpu_s", r.cpuS)
		res.note("peak_rss_mb", r.rssMiB)
		h.logf("repro-full: %d experiments in %.2f s wall, %.2f s CPU, %.0f MiB", len(r.footers), r.wallS, r.cpuS, r.rssMiB)
	}
	res.EndToEnd = endToEnd(repeats, setup)
	res.note("slices_per_repeat", 1)
	return nil
}

func traceRepro(h *harness, res *WorkloadResult) error {
	ids, err := catalogIDs(h)
	if err != nil {
		return err
	}
	root := h.spans.open(0, "repro-full/traced", "repro-full", 0)
	defer h.spans.close(root)

	// The footers are the per-experiment spans reproduce already emits;
	// -jobs 1 makes each one the experiment's own time, not its share of
	// two cores.
	serialStart := time.Now()
	serial, err := runReproduce(h, h.reproArgs(1)...)
	if err != nil {
		return err
	}
	checkRepro(res, ids, serial)
	if res.OutputSHA256 != "" && res.OutputSHA256 != serial.sha {
		res.problem("-jobs 1 and -jobs 0 printed different tables: %s vs %s", serial.sha, res.OutputSHA256)
	}
	res.OutputSHA256 = serial.sha
	at := serialStart.Add(time.Duration(serial.headerS * float64(time.Second)))
	for _, id := range serial.order {
		end := at.Add(time.Duration(serial.footers[id] * float64(time.Second)))
		h.spans.add(root, "experiments."+id, "repro-full", 0, at, end)
		at = end
	}

	res.PerLayer = map[string]float64{}
	rest := 0.0
	for _, secs := range serial.footers {
		rest += secs
	}
	for _, id := range tracedExperiments {
		res.PerLayer["experiments."+id+".host_s"] = serial.footers[id]
		rest -= serial.footers[id]
	}
	res.PerLayer["experiments.rest.host_s"] = rest
	res.PerLayer["proc.peak_rss_mb"] = serial.rssMiB

	// The speed-up of -jobs 0 needs an untraced wall-clock next to the
	// serial one; a traced-only invocation has to take it itself.
	parallelWall := res.Notes["wall_s"]
	if parallelWall == 0 {
		par, err := runReproduce(h, h.reproArgs(0)...)
		if err != nil {
			return err
		}
		checkRepro(res, ids, par)
		if par.sha != serial.sha {
			res.problem("-jobs 1 and -jobs 0 printed different tables: %s vs %s", serial.sha, par.sha)
		}
		parallelWall = par.wallS
	}
	res.PerLayer["parallel.jobs_speedup"] = ratio(serial.wallS, parallelWall)
	return nil
}
