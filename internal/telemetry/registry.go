package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the metrics half of the observability layer: typed counters,
// gauges and mergeable fixed-bucket histograms. Hot-path updates go to a
// per-core shard (no shared cache line is written by two cores), and reads
// merge the shards — the classic sharded-counter design that keeps the
// instrumented fast path as cheap as an uncontended atomic add.
//
// A nil *Registry, and every handle it would have produced, is a no-op:
// the disabled pipeline carries nil handles and pays one predictable
// branch per update, no allocation and no shared write.
type Registry struct {
	shards int

	mu       sync.Mutex
	families map[string]*family // metric name → family
	names    []string           // registration order (sorted at export)
}

// family groups every labelled series of one metric name so HELP/TYPE are
// emitted once per name, as the Prometheus exposition format requires.
type family struct {
	name, help, kind string
	counters         []*Counter
	gauges           []*Gauge
	gaugeFuncs       []*gaugeFunc
	hists            []*Histogram
}

// NewRegistry builds a registry whose hot-path metrics are sharded
// shards-way (one shard per polling core; out-of-range shard indexes fold
// to shard 0).
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{shards: shards, families: make(map[string]*family)}
}

func (r *Registry) getFamily(name, help, kind string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	return f
}

// shardSlot pads each shard's value to its own cache line so per-core
// updates never false-share.
type shardSlot struct {
	v uint64
	_ [7]uint64
}

// Counter is a monotonically increasing metric. Labels (optional) are a
// pre-rendered Prometheus label body such as `cause="ring"`.
type Counter struct {
	name, labels string
	shards       []shardSlot
}

// Counter returns (creating on first use) the unlabelled counter `name`.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, help, "")
}

// CounterL returns (creating on first use) the counter `name{labels}`.
func (r *Registry) CounterL(name, help, labels string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, "counter")
	for _, c := range f.counters {
		if c.labels == labels {
			return c
		}
	}
	c := &Counter{name: name, labels: labels, shards: make([]shardSlot, r.shards)}
	f.counters = append(f.counters, c)
	return c
}

// Add increments the counter by v on the given shard. Nil-safe.
func (c *Counter) Add(shard int, v uint64) {
	if c == nil {
		return
	}
	if shard < 0 || shard >= len(c.shards) {
		shard = 0
	}
	atomic.AddUint64(&c.shards[shard].v, v)
}

// Inc adds one on the given shard. Nil-safe.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value merges every shard. 0 for a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += atomic.LoadUint64(&c.shards[i].v)
	}
	return sum
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	name, labels string
	bits         uint64
}

// GaugeL returns (creating on first use) the gauge `name{labels}`.
func (r *Registry) GaugeL(name, help, labels string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, "gauge")
	for _, g := range f.gauges {
		if g.labels == labels {
			return g
		}
	}
	g := &Gauge{name: name, labels: labels}
	f.gauges = append(f.gauges, g)
	return g
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Value reads the gauge (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// gaugeFunc is a gauge evaluated at export time — free on the hot path, so
// it suits occupancy-style quantities (ring fill, mempool availability).
type gaugeFunc struct {
	labels string
	fn     func() float64
}

// GaugeFunc registers a callback gauge `name{labels}` sampled at export.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, "gauge")
	f.gaugeFuncs = append(f.gaugeFuncs, &gaugeFunc{labels: labels, fn: fn})
}

// Histogram is a fixed-bucket latency histogram. Observations land in a
// per-shard bucket array and are merged at read time, so concurrent
// polling cores never contend.
type Histogram struct {
	name, labels string
	bounds       []float64 // ascending upper bounds; +Inf is implicit
	shards       []histShard
}

type histShard struct {
	counts  []uint64
	sumBits uint64
	count   uint64
	_       [6]uint64
}

// ExpBuckets builds n exponential bucket bounds start, start·factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBucketsNs spans 256 ns .. ~8.4 ms in doubling buckets — the
// range DuT residency occupies from queueing-free to saturated.
func DefLatencyBucketsNs() []float64 { return ExpBuckets(256, 2, 16) }

// Histogram returns (creating on first use) the histogram `name` with the
// given ascending bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramL(name, help, "", bounds)
}

// HistogramL returns (creating on first use) the histogram `name{labels}`
// — one series per label body, e.g. per priority class. Labels must not
// collide with the `le` bucket label the exposition adds.
func (r *Registry) HistogramL(name, help, labels string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, "histogram")
	for _, h := range f.hists {
		if h.labels == labels {
			return h
		}
	}
	h := &Histogram{name: name, labels: labels, bounds: append([]float64(nil), bounds...), shards: make([]histShard, r.shards)}
	for i := range h.shards {
		h.shards[i].counts = make([]uint64, len(bounds)+1) // +1 for +Inf
	}
	f.hists = append(f.hists, h)
	return h
}

// Observe records v on the given shard. Nil-safe.
func (h *Histogram) Observe(shard int, v float64) {
	if h == nil {
		return
	}
	if shard < 0 || shard >= len(h.shards) {
		shard = 0
	}
	s := &h.shards[shard]
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddUint64(&s.counts[i], 1)
	atomic.AddUint64(&s.count, 1)
	for {
		old := atomic.LoadUint64(&s.sumBits)
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&s.sumBits, old, nv) {
			return
		}
	}
}

// Merged returns the shard-merged per-bucket counts (len(bounds)+1, the
// last being the +Inf overflow), total sum and observation count.
func (h *Histogram) Merged() (counts []uint64, sum float64, count uint64) {
	if h == nil {
		return nil, 0, 0
	}
	counts = make([]uint64, len(h.bounds)+1)
	for i := range h.shards {
		s := &h.shards[i]
		for b := range counts {
			counts[b] += atomic.LoadUint64(&s.counts[b])
		}
		sum += math.Float64frombits(atomic.LoadUint64(&s.sumBits))
		count += atomic.LoadUint64(&s.count)
	}
	return counts, sum, count
}

func metricLine(w io.Writer, name, labels string, v string) error {
	if labels != "" {
		_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, v)
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", name, v)
	return err
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families sorted by name. Nil-safe (writes
// nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		// Registration appends to a family's series under r.mu, so copy
		// the slice headers while holding it and render from the copies.
		r.mu.Lock()
		f := *r.families[name]
		r.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, c := range f.counters {
			if err := metricLine(w, c.name, c.labels, fmt.Sprintf("%d", c.Value())); err != nil {
				return err
			}
		}
		for _, g := range f.gauges {
			if err := metricLine(w, g.name, g.labels, formatFloat(g.Value())); err != nil {
				return err
			}
		}
		for _, gf := range f.gaugeFuncs {
			if err := metricLine(w, f.name, gf.labels, formatFloat(gf.fn())); err != nil {
				return err
			}
		}
		for _, h := range f.hists {
			counts, sum, count := h.Merged()
			le := func(v string) string {
				if h.labels != "" {
					return h.labels + `,le="` + v + `"`
				}
				return `le="` + v + `"`
			}
			var cum uint64
			for i, b := range h.bounds {
				cum += counts[i]
				if err := metricLine(w, h.name+"_bucket", le(formatFloat(b)), fmt.Sprintf("%d", cum)); err != nil {
					return err
				}
			}
			cum += counts[len(h.bounds)]
			if err := metricLine(w, h.name+"_bucket", le("+Inf"), fmt.Sprintf("%d", cum)); err != nil {
				return err
			}
			if err := metricLine(w, h.name+"_sum", h.labels, formatFloat(sum)); err != nil {
				return err
			}
			if err := metricLine(w, h.name+"_count", h.labels, fmt.Sprintf("%d", count)); err != nil {
				return err
			}
		}
	}
	return nil
}
