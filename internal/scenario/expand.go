package scenario

import (
	"fmt"
	"math"
	"strings"

	"sliceaware/internal/parallel"
)

// asInt accepts a JSON number (decoded as float64) that holds an integer.
func asInt(v any) (int64, bool) {
	x, ok := v.(float64)
	if ok && x == math.Trunc(x) && math.Abs(x) < 1<<53 {
		return int64(x), true
	}
	return 0, false
}

// DeriveSeed is the per-scenario seed derivation: the same
// f(runSeed, scenarioID, index) discipline internal/parallel uses for
// per-trial seeds, so a scenario's randomness depends only on the
// run-wide seed and its position in the deterministic expansion —
// never on worker count or completion order.
func DeriveSeed(runSeed int64, scenarioID string, index int) int64 {
	return parallel.Seed(runSeed, scenarioID, index)
}

// Expand turns the file into its concrete scenario list: explicit
// scenarios first (file order), then every matrix block expanded in
// sorted-axis-name odometer order (last axis fastest). The result is a
// pure function of the document: same bytes in, byte-identical
// expansion out.
func (f *File) Expand() ([]*Scenario, error) {
	var out []*Scenario
	seen := map[string]int{}
	add := func(s *Spec) error {
		sc, err := f.finalize(merged(f.Defaults, s), len(out))
		if err != nil {
			return err
		}
		if prev, dup := seen[sc.ID]; dup {
			return fmt.Errorf("scenario %q: duplicate id (first at index %d)", sc.ID, prev)
		}
		seen[sc.ID] = sc.Index
		out = append(out, sc)
		return nil
	}

	for _, s := range f.Scenarios {
		if err := add(s); err != nil {
			return nil, err
		}
	}
	for mi, m := range f.Matrix {
		if m.Base == nil {
			return nil, fmt.Errorf("matrix %d: missing base", mi)
		}
		if len(m.Axes) == 0 {
			return nil, fmt.Errorf("matrix %d: no axes", mi)
		}
		axes := sortedKeys(m.Axes)
		for _, ax := range axes {
			if len(m.Axes[ax]) == 0 {
				return nil, fmt.Errorf("matrix %d: axis %q has no values", mi, ax)
			}
		}
		// Odometer over the sorted axes, last axis fastest.
		idx := make([]int, len(axes))
		for {
			s := cloneSpec(m.Base)
			id := s.ID
			if id == "" {
				return nil, fmt.Errorf("matrix %d: base needs an id prefix", mi)
			}
			for ai, ax := range axes {
				v := m.Axes[ax][idx[ai]]
				if err := applyAxis(s, ax, v); err != nil {
					return nil, fmt.Errorf("matrix %d (%s): %w", mi, id, err)
				}
				vs, err := axisValueString(v)
				if err != nil {
					return nil, fmt.Errorf("matrix %d (%s) axis %q: %w", mi, id, ax, err)
				}
				id += "/" + axisLabel(ax) + "=" + vs
			}
			s.ID = id
			if err := add(s); err != nil {
				return nil, err
			}
			// Advance the odometer.
			ai := len(axes) - 1
			for ; ai >= 0; ai-- {
				idx[ai]++
				if idx[ai] < len(m.Axes[axes[ai]]) {
					break
				}
				idx[ai] = 0
			}
			if ai < 0 {
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario file %q expands to no scenarios", f.Name)
	}
	return out, nil
}

// cloneSpec deep-copies the mutable parts an axis can touch.
func cloneSpec(s *Spec) *Spec {
	c := *s
	c.Only = append([]string(nil), s.Only...)
	c.Artifacts = append([]string(nil), s.Artifacts...)
	c.Argv = append([]string(nil), s.Argv...)
	c.Env = mergeMap(nil, s.Env)
	c.Flags = mergeAnyMap(nil, s.Flags)
	if s.Serving != nil {
		sv := *s.Serving
		sv.Daemon = mergeAnyMap(nil, s.Serving.Daemon)
		sv.Loadgen = mergeAnyMap(nil, s.Serving.Loadgen)
		sv.Statsink = mergeAnyMap(nil, s.Serving.Statsink)
		c.Serving = &sv
	}
	return &c
}

// axisLabel shortens dotted axis keys for scenario IDs: "flags.gbps"
// contributes "gbps", "daemon.shards" contributes "shards".
func axisLabel(ax string) string {
	if i := strings.LastIndex(ax, "."); i >= 0 {
		return ax[i+1:]
	}
	return ax
}

// axisValueString renders an axis value for the scenario ID.
func axisValueString(v any) (string, error) {
	if list, ok := v.([]any); ok {
		parts := make([]string, len(list))
		for i, e := range list {
			s, err := formatValue(e)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return strings.Join(parts, "+"), nil
	}
	return formatValue(v)
}

// applyAxis sets one axis value on the spec copy.
func applyAxis(s *Spec, ax string, v any) error {
	wrongType := func(want string) error {
		return fmt.Errorf("axis %q: value %v is not a %s", ax, v, want)
	}
	switch {
	case ax == "tool" || ax == "scale" || ax == "timeout" || ax == "golden":
		str, ok := v.(string)
		if !ok {
			return wrongType("string")
		}
		switch ax {
		case "tool":
			s.Tool = str
		case "scale":
			s.Scale = str
		case "timeout":
			s.Timeout = str
		case "golden":
			s.Golden = str
		}
	case ax == "seed" || ax == "jobs" || ax == "retries":
		n, ok := asInt(v)
		if !ok {
			return wrongType("integer")
		}
		switch ax {
		case "seed":
			s.Seed = &n
		case "jobs":
			j := int(n)
			s.Jobs = &j
		case "retries":
			r := int(n)
			s.Retries = &r
		}
	case ax == "only":
		switch x := v.(type) {
		case string:
			s.Only = []string{x}
		case []any:
			ids := make([]string, len(x))
			for i, e := range x {
				str, ok := e.(string)
				if !ok {
					return wrongType("string list")
				}
				ids[i] = str
			}
			s.Only = ids
		default:
			return wrongType("string or string list")
		}
	case strings.HasPrefix(ax, "flags."):
		if s.Flags == nil {
			s.Flags = map[string]any{}
		}
		s.Flags[strings.TrimPrefix(ax, "flags.")] = v
	case strings.HasPrefix(ax, "env."):
		str, ok := v.(string)
		if !ok {
			return wrongType("string")
		}
		if s.Env == nil {
			s.Env = map[string]string{}
		}
		s.Env[strings.TrimPrefix(ax, "env.")] = str
	case strings.HasPrefix(ax, "daemon.") || strings.HasPrefix(ax, "loadgen.") || strings.HasPrefix(ax, "statsink."):
		if s.Serving == nil {
			return fmt.Errorf("axis %q needs a serving block in the matrix base", ax)
		}
		name := ax[strings.Index(ax, ".")+1:]
		var m *map[string]any
		switch {
		case strings.HasPrefix(ax, "daemon."):
			m = &s.Serving.Daemon
		case strings.HasPrefix(ax, "loadgen."):
			m = &s.Serving.Loadgen
		default:
			m = &s.Serving.Statsink
		}
		if *m == nil {
			*m = map[string]any{}
		}
		(*m)[name] = v
	default:
		return fmt.Errorf("unknown axis %q (valid: tool scale seed jobs timeout retries golden only flags.* env.* daemon.* loadgen.* statsink.*)", ax)
	}
	return nil
}
