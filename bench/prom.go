package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSeries is one line of a Prometheus text exposition.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the text exposition format as slicekvsd's /metrics
// writes it: comment lines, then `name{k="v",...} value` or `name value`.
func parseProm(text string) ([]promSeries, error) {
	var out []promSeries
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := promSeries{name: line[:sp], value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics line with an unclosed label set: %q", line)
			}
			if s.labels, err = parseLabels(s.name[open+1 : len(s.name)-1]); err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			s.name = s.name[:open]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label set %q", s)
		}
		end := strings.IndexByte(s[eq+2:], '"')
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		labels[s[:eq]] = s[eq+2 : eq+2+end]
		s = strings.TrimPrefix(s[eq+2+end+1:], ",")
	}
	return labels, nil
}

// matches reports whether the series carries every label of want.
func (s promSeries) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// promValue sums the series called name that carry the labels of want.
func promValue(series []promSeries, name string, want map[string]string) float64 {
	sum := 0.0
	for _, s := range series {
		if s.name == name && s.matches(want) {
			sum += s.value
		}
	}
	return sum
}

// histogram is a Prometheus histogram: cumulative counts per upper bound.
type histogram struct {
	sum, count float64
	bounds     []float64 // ascending; the last is +Inf
	cum        []float64
}

// promHistogram assembles the histogram called name (its _sum, _count and
// _bucket series) restricted to the labels of want.
func promHistogram(series []promSeries, name string, want map[string]string) (histogram, error) {
	h := histogram{
		sum:   promValue(series, name+"_sum", want),
		count: promValue(series, name+"_count", want),
	}
	byBound := map[float64]float64{}
	for _, s := range series {
		if s.name != name+"_bucket" || !s.matches(want) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64) // ParseFloat reads "+Inf"
		if err != nil {
			return h, fmt.Errorf("%s: bucket bound %q: %w", name, s.labels["le"], err)
		}
		byBound[le] += s.value
	}
	for le := range byBound {
		h.bounds = append(h.bounds, le)
	}
	sort.Float64s(h.bounds)
	for _, le := range h.bounds {
		h.cum = append(h.cum, byBound[le])
	}
	if len(h.bounds) == 0 {
		return h, fmt.Errorf("%s %v: no buckets", name, want)
	}
	return h, nil
}

// sub returns h minus an earlier reading of the same histogram: what was
// observed between the two scrapes.
func (h histogram) sub(earlier histogram) histogram {
	d := histogram{sum: h.sum - earlier.sum, count: h.count - earlier.count, bounds: h.bounds}
	d.cum = make([]float64, len(h.cum))
	for i := range h.cum {
		d.cum[i] = h.cum[i]
		if i < len(earlier.cum) {
			d.cum[i] -= earlier.cum[i]
		}
	}
	return d
}

func (h histogram) mean() float64 { return ratio(h.sum, h.count) }

// quantile estimates the q-quantile the way Prometheus does: find the
// bucket the rank falls in and interpolate linearly inside it. A rank in
// the +Inf bucket reports the highest finite bound.
func (h histogram) quantile(q float64) float64 {
	if len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return 0
	}
	rank := q * h.cum[len(h.cum)-1]
	i := sort.SearchFloat64s(h.cum, rank)
	if i >= len(h.cum) {
		i = len(h.cum) - 1
	}
	if math.IsInf(h.bounds[i], 1) {
		if i == 0 {
			return 0
		}
		return h.bounds[i-1]
	}
	lo, below := 0.0, 0.0
	if i > 0 {
		lo, below = h.bounds[i-1], h.cum[i-1]
	}
	in := h.cum[i] - below
	if in == 0 {
		return h.bounds[i]
	}
	return lo + (h.bounds[i]-lo)*(rank-below)/in
}
