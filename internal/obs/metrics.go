package obs

import (
	"fmt"
	"math"
)

// Counter is a monotonically non-decreasing metric.
type Counter struct {
	v float64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add increases the counter by d. Negative deltas are an authoring error.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("obs: negative counter delta %g", d))
	}
	c.v += d
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Histogram is a fixed-bucket distribution. Bucket i counts observations
// v with bounds[i-1] < v <= bounds[i]; one extra overflow bucket counts
// v > bounds[len-1] (the +Inf bucket). The bucket layout is fixed at
// registration and never reallocated, so snapshots of the same metric
// always align.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	count  uint64
}

// Observe records one value. NaN is an authoring error — every bucket
// comparison against NaN is false, so it would land in bucket 0 and
// poison sum (and everything downstream of snapshot merge) — so it
// panics, mirroring Counter.Add on negative deltas.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		panic("obs: NaN histogram observation")
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// ExpBuckets returns n upper bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs n >= 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ByteBuckets is the shared layout for payload-size histograms:
// 64 B .. 1 MiB in powers of four.
var ByteBuckets = ExpBuckets(64, 4, 8)

// Registry holds a world's metrics. Metric handles are get-or-create:
// looking a name up twice returns the same instance, so hot paths can
// cache the pointer once and skip the map afterwards.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// checkName enforces the metric-name charset (lowercase dotted words,
// digits, dashes and underscores allowed) so the JSON encoding never
// needs escaping.
func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			panic(fmt.Sprintf("obs: invalid metric name %q (want subsystem.noun.verb)", name))
		}
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	checkName(name)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. bounds must be strictly ascending;
// re-registering an existing histogram with a different layout panics —
// a fixed layout is what keeps cross-seed aggregation well-defined.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if h, ok := r.hists[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %s re-registered with %d buckets, had %d", name, len(bounds), len(h.bounds)))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("obs: histogram %s re-registered with different bounds", name))
			}
		}
		return h
	}
	checkName(name)
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %s needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}
