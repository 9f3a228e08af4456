// Package scenario defines the declarative experiment-scenario schema
// behind cmd/fleet: a typed JSON document describing what to run
// (reproduce, a serving daemon+loadgen+statsink trio, or a raw argv),
// at what scale, with which experiment IDs, knobs, seed, timeout and
// expected artifacts — plus matrix blocks that expand axes into
// concrete scenario lists.
//
// Three properties the package guarantees:
//
//   - Strict validation. Unknown top-level fields, unknown tools,
//     unknown tool flags, malformed durations, duplicate IDs and
//     experiment IDs absent from internal/experiments.Catalog are all
//     hard errors at load time, never silent no-ops at run time.
//   - Deterministic expansion. Matrix axes expand in sorted-axis-name
//     odometer order, so the same file always yields the same scenario
//     list, IDs and indices — regardless of map iteration or of how
//     many fleet workers later consume the list.
//   - Deterministic seeding. A scenario without a pinned seed derives
//     one with the same f(runSeed, scenarioID, index) discipline as
//     internal/parallel derives trial seeds, so expansion order is the
//     only input and worker count or completion order never changes a
//     scenario's randomness.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"sliceaware/internal/experiments"
)

// File is one scenario document.
type File struct {
	// Name labels the run; defaults to the file's base name.
	Name string `json:"name"`
	// RunSeed feeds the per-scenario seed derivation for scenarios that
	// do not pin a seed. Defaults to 1.
	RunSeed int64 `json:"run_seed"`
	// Defaults is merged into every scenario (explicit and matrix-born)
	// before validation; scenario fields win.
	Defaults *Spec `json:"defaults"`
	// Scenarios are explicit concrete scenarios, run in file order.
	Scenarios []*Spec `json:"scenarios"`
	// Matrix blocks expand after the explicit list, in file order.
	Matrix []*Matrix `json:"matrix"`

	// Dir is the directory the file was loaded from; golden and
	// artifact-template paths resolve against it. Not part of the
	// document.
	Dir string `json:"-"`
}

// Matrix is one template + axes block: every combination of axis values
// is applied to a copy of Base and yields one concrete scenario.
type Matrix struct {
	Base *Spec `json:"base"`
	// Axes maps an axis key to its value list. Keys address scenario
	// fields ("scale", "seed", "jobs", "only", "timeout", "retries",
	// "golden") or dotted extensions ("flags.metrics-dir", "env.GODEBUG",
	// "daemon.shards", "loadgen.conns", "statsink.out").
	Axes map[string][]any `json:"axes"`
}

// Spec is a scenario as written in the file: partially filled, merged
// with defaults and validated into a Scenario by Expand.
type Spec struct {
	ID        string            `json:"id"`
	Tool      string            `json:"tool"`
	Scale     string            `json:"scale"`
	Only      []string          `json:"only"`
	All       *bool             `json:"all"`
	Seed      *int64            `json:"seed"`
	Jobs      *int              `json:"jobs"`
	Timeout   string            `json:"timeout"`
	Retries   *int              `json:"retries"`
	Env       map[string]string `json:"env"`
	Golden    string            `json:"golden"`
	Artifacts []string          `json:"artifacts"`
	// Flags are additional reproduce flags, validated against its
	// allowlist. Values may be strings, numbers or booleans.
	Flags map[string]any `json:"flags"`
	// Argv is the full command line of a "raw" scenario (argv[0] may be
	// any executable on PATH); only valid with tool "raw".
	Argv []string `json:"argv"`
	// Serving configures the daemon+loadgen(+statsink) trio; only valid
	// with tool "serving".
	Serving *ServingSpec `json:"serving"`
}

// ServingSpec configures a serving-trio scenario. The orchestrator
// wires addresses itself: daemon "addr"/"http" and statsink "listen"
// default to auto-assigned loopback ports, loadgen "addr" and both
// "sink-addr" flags are always derived and may not be set here.
type ServingSpec struct {
	Daemon   map[string]any `json:"daemon"`
	Loadgen  map[string]any `json:"loadgen"`
	Statsink map[string]any `json:"statsink"`
	// ReadyTimeout bounds waiting for /healthz = ready (default 15s).
	ReadyTimeout string `json:"ready_timeout"`
	// DrainTimeout bounds waiting for the daemon to exit after SIGTERM
	// (default 20s).
	DrainTimeout string `json:"drain_timeout"`
	// ExpectDrain asserts /healthz is observed "draining" after SIGTERM
	// (default true).
	ExpectDrain *bool `json:"expect_drain"`
}

// Scenario is one validated, concrete scenario ready to execute.
type Scenario struct {
	ID    string `json:"id"`
	Index int    `json:"index"`
	Tool  string `json:"tool"`
	// Seed is the scenario's seed: pinned from the file, or derived as
	// f(runSeed, ID, Index) when SeedDerived is true.
	Seed        int64 `json:"seed"`
	SeedDerived bool  `json:"seed_derived"`
	// Args is the rendered flag tail for the tool binary (empty for
	// serving scenarios, which render per-process at launch).
	Args      []string          `json:"args,omitempty"`
	Argv      []string          `json:"argv,omitempty"`
	TimeoutNS time.Duration     `json:"timeout_ns"`
	Retries   int               `json:"retries"`
	Env       map[string]string `json:"env,omitempty"`
	Golden    string            `json:"golden,omitempty"`
	Artifacts []string          `json:"artifacts,omitempty"`
	Serving   *Serving          `json:"serving,omitempty"`
}

// Serving is the validated trio configuration. Flag maps hold
// stringified values; the orchestrator adds the address wiring.
type Serving struct {
	DaemonFlags   map[string]string `json:"daemon_flags"`
	LoadgenFlags  map[string]string `json:"loadgen_flags"`
	StatsinkFlags map[string]string `json:"statsink_flags,omitempty"`
	Statsink      bool              `json:"statsink"`
	ReadyTimeout  time.Duration     `json:"ready_timeout_ns"`
	DrainTimeout  time.Duration     `json:"drain_timeout_ns"`
	ExpectDrain   bool              `json:"expect_drain"`
}

// flag kinds for allowlist validation.
type kind int

const (
	kString kind = iota
	kInt
	kFloat
	kBool
	kDuration
)

// tools are the scenario kinds: the reproduce binary, a serving
// daemon+loadgen(+statsink) trio, or a raw argv.
var tools = []string{"raw", "reproduce", "serving"}

// reproduceFlags are the reproduce flags a scenario sets through flags;
// seed, jobs, scale and only/all have typed fields of their own.
var reproduceFlags = map[string]kind{"metrics-dir": kString}

// daemonFlags / loadgenFlags / statsinkFlags are the per-process
// allowlists of a serving trio. Address wiring (loadgen addr, both
// sink-addrs) is orchestrator-owned and rejected here.
var daemonFlags = map[string]kind{
	"addr": kString, "http": kString, "shards": kInt, "keys": kInt,
	"sliceaware": kBool, "warmup": kInt, "conns-max": kInt, "inbox": kInt,
	"classes": kInt, "read-timeout": kDuration, "write-timeout": kDuration,
	"request-timeout": kDuration, "drain-timeout": kDuration,
	"lame-duck": kDuration, "breaker-cooldown": kDuration,
	"aqm": kString, "aqm-target": kDuration, "aqm-interval": kDuration,
	"full-sojourn": kDuration, "checkpoint": kString,
	"wal-dir": kString, "wal-flush-every": kDuration, "wal-flush-records": kInt,
	"wal-snapshot-every": kInt, "restart-backoff": kDuration,
	"stats-tick": kDuration, "trace-sample": kInt, "trace-out": kString,
	"pprof": kBool, "slo": kString, "slo-burn": kFloat,
	"slo-fast": kDuration, "slo-slow": kDuration,
}

var loadgenFlags = map[string]kind{
	"conns": kInt, "classes": kInt, "keys": kInt, "theta": kFloat,
	"seed": kInt, "rate": kFloat, "diurnal-amp": kFloat, "diurnal-period": kDuration,
	"set-ratio": kFloat, "duration": kDuration, "timeout": kDuration,
	"backoff": kDuration, "churn-every": kInt, "chaos": kString, "chaos-seed": kInt,
	"verify": kBool, "ledger": kString, "check": kString, "prev-check": kString,
	"check-out": kString, "max-loss": kInt, "baseline": kDuration,
	"baseline-rate": kFloat, "assert-tail-ratio": kFloat, "json": kString,
	"out": kString,
}

var statsinkFlags = map[string]kind{
	"listen": kString, "out": kString, "quiet": kBool,
}

var idRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._+=/-]*$`)

// Load reads and strictly decodes a JSON scenario file. Any other
// extension is an error. Unknown fields are errors.
func Load(path string) (*File, error) {
	if ext := strings.ToLower(filepath.Ext(path)); ext != ".json" {
		return nil, fmt.Errorf("%s: unsupported scenario format %q (want .json)", path, ext)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Name == "" {
		base := filepath.Base(path)
		f.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	f.Dir = filepath.Dir(path)
	return f, nil
}

// Decode strictly decodes one JSON scenario document.
func Decode(jsonBytes []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(jsonBytes))
	dec.DisallowUnknownFields()
	f := &File{}
	if err := dec.Decode(f); err != nil {
		return nil, err
	}
	if f.RunSeed == 0 {
		f.RunSeed = 1
	}
	return f, nil
}

// merged returns a copy of spec with file defaults filled into unset
// fields. Maps merge entry-wise with the scenario winning.
func merged(def, s *Spec) *Spec {
	out := *s
	if def == nil {
		return &out
	}
	if out.Tool == "" {
		out.Tool = def.Tool
	}
	if out.Scale == "" {
		out.Scale = def.Scale
	}
	if out.Only == nil {
		out.Only = def.Only
	}
	if out.All == nil {
		out.All = def.All
	}
	if out.Seed == nil {
		out.Seed = def.Seed
	}
	if out.Jobs == nil {
		out.Jobs = def.Jobs
	}
	if out.Timeout == "" {
		out.Timeout = def.Timeout
	}
	if out.Retries == nil {
		out.Retries = def.Retries
	}
	if out.Golden == "" {
		out.Golden = def.Golden
	}
	if out.Artifacts == nil {
		out.Artifacts = def.Artifacts
	}
	if out.Argv == nil {
		out.Argv = def.Argv
	}
	out.Env = mergeMap(def.Env, out.Env)
	out.Flags = mergeAnyMap(def.Flags, out.Flags)
	if def.Serving != nil {
		ds := *def.Serving
		if out.Serving == nil {
			out.Serving = &ds
		} else {
			ss := *out.Serving
			ss.Daemon = mergeAnyMap(ds.Daemon, ss.Daemon)
			ss.Loadgen = mergeAnyMap(ds.Loadgen, ss.Loadgen)
			ss.Statsink = mergeAnyMap(ds.Statsink, ss.Statsink)
			if ss.ReadyTimeout == "" {
				ss.ReadyTimeout = ds.ReadyTimeout
			}
			if ss.DrainTimeout == "" {
				ss.DrainTimeout = ds.DrainTimeout
			}
			if ss.ExpectDrain == nil {
				ss.ExpectDrain = ds.ExpectDrain
			}
			out.Serving = &ss
		}
	}
	return &out
}

func mergeMap(def, over map[string]string) map[string]string {
	if def == nil && over == nil {
		return nil
	}
	out := make(map[string]string, len(def)+len(over))
	for k, v := range def {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}

func mergeAnyMap(def, over map[string]any) map[string]any {
	if def == nil && over == nil {
		return nil
	}
	out := make(map[string]any, len(def)+len(over))
	for k, v := range def {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}

// formatValue renders a JSON scalar as a flag value. Integral floats
// print as integers so JSON's number type never changes a flag's text.
func formatValue(v any) (string, error) {
	switch x := v.(type) {
	case string:
		return x, nil
	case bool:
		return strconv.FormatBool(x), nil
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return strconv.FormatInt(int64(x), 10), nil
		}
		return strconv.FormatFloat(x, 'g', -1, 64), nil
	case json.Number:
		return x.String(), nil
	default:
		return "", fmt.Errorf("unsupported flag value type %T", v)
	}
}

// checkKind validates a rendered flag value against its declared kind.
func checkKind(name, val string, k kind) error {
	switch k {
	case kInt:
		if _, err := strconv.ParseInt(val, 10, 64); err != nil {
			return fmt.Errorf("flag %q: %q is not an integer", name, val)
		}
	case kFloat:
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return fmt.Errorf("flag %q: %q is not a number", name, val)
		}
	case kBool:
		if _, err := strconv.ParseBool(val); err != nil {
			return fmt.Errorf("flag %q: %q is not a boolean", name, val)
		}
	case kDuration:
		if _, err := time.ParseDuration(val); err != nil {
			return fmt.Errorf("flag %q: %q is not a duration", name, val)
		}
	}
	return nil
}

// renderFlagMap validates m against the allowlist and returns
// name→stringified-value. reserved lists orchestrator-owned flags that
// the file may not set.
func renderFlagMap(m map[string]any, allow map[string]kind, reserved map[string]string) (map[string]string, error) {
	if len(m) == 0 {
		return map[string]string{}, nil
	}
	out := make(map[string]string, len(m))
	for name, v := range m {
		name = strings.TrimPrefix(name, "-")
		if why, ok := reserved[name]; ok {
			return nil, fmt.Errorf("flag %q is orchestrator-owned (%s)", name, why)
		}
		k, ok := allow[name]
		if !ok {
			return nil, fmt.Errorf("unknown flag %q (valid: %s)", name, strings.Join(sortedKeys(allow), " "))
		}
		val, err := formatValue(v)
		if err != nil {
			return nil, fmt.Errorf("flag %q: %w", name, err)
		}
		if err := checkKind(name, val, k); err != nil {
			return nil, err
		}
		out[name] = val
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// RenderArgs turns a stringified flag map into deterministic
// "-name=value" arguments, sorted by flag name.
func RenderArgs(m map[string]string) []string {
	args := make([]string, 0, len(m))
	for _, name := range sortedKeys(m) {
		args = append(args, "-"+name+"="+m[name])
	}
	return args
}

func parseTimeout(s, what string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("%s: must be positive, got %v", what, d)
	}
	return d, nil
}

func checkRelPath(p, what string) error {
	if p == "" {
		return nil
	}
	if filepath.IsAbs(p) {
		return fmt.Errorf("%s %q must be relative", what, p)
	}
	clean := filepath.ToSlash(filepath.Clean(p))
	if clean == ".." || strings.HasPrefix(clean, "../") {
		return fmt.Errorf("%s %q escapes the run directory", what, p)
	}
	return nil
}

// finalize validates one merged Spec and produces the concrete
// Scenario at the given expansion index.
func (f *File) finalize(s *Spec, index int) (*Scenario, error) {
	if s.ID == "" {
		return nil, fmt.Errorf("scenario %d: missing id", index)
	}
	fail := func(format string, a ...any) (*Scenario, error) {
		return nil, fmt.Errorf("scenario %q: %s", s.ID, fmt.Sprintf(format, a...))
	}
	if !idRe.MatchString(s.ID) {
		return fail("id contains characters outside [A-Za-z0-9._+=/-]")
	}
	if !slices.Contains(tools, s.Tool) {
		if s.Tool == "" {
			return fail("missing tool (valid: %s)", strings.Join(tools, " "))
		}
		return fail("unknown tool %q (valid: %s)", s.Tool, strings.Join(tools, " "))
	}

	sc := &Scenario{
		ID:    s.ID,
		Index: index,
		Tool:  s.Tool,
		Env:   s.Env,
	}
	if s.Seed != nil {
		sc.Seed = *s.Seed
	} else {
		sc.Seed = DeriveSeed(f.RunSeed, s.ID, index)
		sc.SeedDerived = true
	}
	var err error
	if sc.TimeoutNS, err = parseTimeout(s.Timeout, "timeout", 5*time.Minute); err != nil {
		return fail("%v", err)
	}
	if s.Retries != nil {
		if *s.Retries < 0 || *s.Retries > 10 {
			return fail("retries %d out of range [0,10]", *s.Retries)
		}
		sc.Retries = *s.Retries
	}
	for k := range s.Env {
		if k == "" || strings.Contains(k, "=") {
			return fail("invalid env key %q", k)
		}
	}
	if err := checkRelPath(s.Golden, "golden"); err != nil {
		return fail("%v", err)
	}
	sc.Golden = s.Golden
	for _, a := range s.Artifacts {
		if err := checkRelPath(a, "artifact"); err != nil {
			return fail("%v", err)
		}
	}
	sc.Artifacts = s.Artifacts

	// Scale handling.
	switch s.Scale {
	case "", "quick", "full":
	default:
		return fail("unknown scale %q (want quick or full)", s.Scale)
	}
	if s.Scale != "" && s.Tool != "reproduce" {
		return fail("tool %s has no scale; drop the scale field", s.Tool)
	}

	// Tool-specific surfaces.
	if s.Tool != "raw" && len(s.Argv) > 0 {
		return fail("argv is only valid with tool raw")
	}
	if s.Tool != "serving" && s.Serving != nil {
		return fail("serving block is only valid with tool serving")
	}
	if s.Tool != "reproduce" && (len(s.Only) > 0 || s.All != nil) {
		return fail("only/all are only valid with tool reproduce")
	}

	switch s.Tool {
	case "raw":
		if len(s.Argv) == 0 {
			return fail("tool raw requires argv")
		}
		if len(s.Flags) > 0 {
			return fail("tool raw takes argv, not flags")
		}
		sc.Argv = s.Argv
		return sc, nil
	case "serving":
		if len(s.Flags) > 0 {
			return fail("tool serving takes daemon/loadgen/statsink blocks, not flags")
		}
		if s.Golden != "" {
			return fail("golden diff is not supported for serving scenarios")
		}
		sv, err := f.finalizeServing(s.Serving)
		if err != nil {
			return fail("%v", err)
		}
		sc.Serving = sv
		return sc, nil
	}

	// reproduce: render the deterministic argument tail.
	flags, err := renderFlagMap(s.Flags, reproduceFlags, map[string]string{
		"seed":  "use the scenario seed field",
		"jobs":  "use the scenario jobs field",
		"scale": "use the scenario scale field",
		"only":  "use the scenario only field",
		"all":   "use the scenario all field",
		"list":  "fleet queries the catalog itself",
	})
	if err != nil {
		return fail("%v", err)
	}
	scale := s.Scale
	if scale == "" {
		scale = "quick"
	}
	jobs := 1
	if s.Jobs != nil {
		if *s.Jobs < 0 {
			return fail("jobs %d must be >= 0", *s.Jobs)
		}
		jobs = *s.Jobs
	}
	args := []string{"-scale=" + scale, "-seed=" + strconv.FormatInt(sc.Seed, 10), "-jobs=" + strconv.Itoa(jobs)}
	if len(s.Only) > 0 {
		ids, err := experiments.ValidateIDs(s.Only)
		if err != nil {
			return fail("only: %v", err)
		}
		if len(ids) == 0 {
			return fail("only selected no experiments")
		}
		args = append(args, "-only="+strings.Join(ids, ","))
	}
	if s.All != nil && *s.All {
		args = append(args, "-all=true")
	}
	sc.Args = append(args, RenderArgs(flags)...)
	return sc, nil
}

func (f *File) finalizeServing(sv *ServingSpec) (*Serving, error) {
	if sv == nil {
		return nil, fmt.Errorf("tool serving requires a serving block")
	}
	out := &Serving{ExpectDrain: true}
	var err error
	if out.ReadyTimeout, err = parseTimeout(sv.ReadyTimeout, "ready_timeout", 15*time.Second); err != nil {
		return nil, err
	}
	if out.DrainTimeout, err = parseTimeout(sv.DrainTimeout, "drain_timeout", 20*time.Second); err != nil {
		return nil, err
	}
	if sv.ExpectDrain != nil {
		out.ExpectDrain = *sv.ExpectDrain
	}
	wired := map[string]string{"sink-addr": "fleet wires statsink addresses"}
	if out.DaemonFlags, err = renderFlagMap(sv.Daemon, daemonFlags, wired); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	lgReserved := map[string]string{
		"addr":      "fleet points loadgen at the daemon it started",
		"sink-addr": "fleet wires statsink addresses",
	}
	if out.LoadgenFlags, err = renderFlagMap(sv.Loadgen, loadgenFlags, lgReserved); err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	if sv.Statsink != nil {
		out.Statsink = true
		if out.StatsinkFlags, err = renderFlagMap(sv.Statsink, statsinkFlags, nil); err != nil {
			return nil, fmt.Errorf("statsink: %w", err)
		}
	}
	return out, nil
}
