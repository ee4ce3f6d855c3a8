// Package metrics implements the simulation's metrics registry: named
// counters, gauges, and fixed-bucket histograms that the MPI runtime,
// the HAN framework, and the flow-level network model increment as a
// simulation runs.
//
// Everything is deterministic by construction. The registry holds plain
// values mutated from engine context (the sim engine is single-threaded,
// so there are no locks), samples carry *virtual* timestamps, and the
// OpenMetrics exporter renders families sorted by name and series sorted
// by label value — two replays of the same (seed, plan, machine) triple
// produce byte-identical exports, which internal/bench's golden tests
// enforce.
//
// Handles are nil-safe: every method on a nil *Counter, *Gauge, or
// *Histogram is a no-op, and a nil *Registry returns nil handles. Hot
// paths therefore register their handles once (see mpi.World.EnableMetrics)
// and increment unconditionally; a world without metrics enabled pays a
// single nil check per event.
//
// The exported format and the catalog of metrics registered by the stock
// instrumentation are documented in docs/OBSERVABILITY.md; a test in
// internal/bench fails if a registered family is missing from that
// contract.
package metrics

import (
	"fmt"
	"sort"
)

// Type classifies a metric family.
type Type string

// Metric family types, matching the OpenMetrics vocabulary.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Opts names one metric series: the family name plus an optional label
// set distinguishing series within the family.
type Opts struct {
	// Name is the OpenMetrics family name (snake_case, no _total suffix —
	// the exporter appends the suffixes the format requires).
	Name string
	// Help is the one-line family description emitted as # HELP.
	Help string
	// Unit is the family unit ("bytes", "seconds", ...), emitted as
	// # UNIT; empty for dimensionless metrics.
	Unit string
	// Labels distinguishes series within a family (e.g. task="ib").
	// All series of one family must use the same label keys.
	Labels map[string]string
}

// labelString renders the label set in canonical `k="v",...` form with
// keys sorted (no surrounding braces), or "" for an unlabelled series.
func (o Opts) labelString() string {
	if len(o.Labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(o.Labels))
	for k := range o.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", k, o.Labels[k])
	}
	return s
}

// series is one registered time series: a family plus one label set.
type series struct {
	family *family
	labels string // canonical label string, "" when unlabelled

	c *Counter
	g *Gauge
	h *Histogram
}

// family groups the series sharing one name.
type family struct {
	name, help, unit string
	typ              Type
	series           []*series // registration order; exporter sorts by label
}

// Registry holds metric families. The zero value is not usable; create
// registries with New. A nil *Registry hands out nil (no-op) handles, so
// instrumented code never needs to branch on "metrics enabled".
type Registry struct {
	families map[string]*family
	order    []*family // registration order, for stable iteration
	byKey    map[string]*series
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		families: make(map[string]*family),
		byKey:    make(map[string]*series),
	}
}

// lookup finds or creates the series for (o, typ). It panics on a family
// re-registered under a different type, help, or unit — that is a
// programming error, not user input.
func (r *Registry) lookup(o Opts, typ Type) *series {
	if o.Name == "" {
		panic("metrics: empty metric name")
	}
	fam := r.families[o.Name]
	if fam == nil {
		fam = &family{name: o.Name, help: o.Help, unit: o.Unit, typ: typ}
		r.families[o.Name] = fam
		r.order = append(r.order, fam)
	} else if fam.typ != typ {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", o.Name, typ, fam.typ))
	}
	key := o.Name + o.labelString()
	s := r.byKey[key]
	if s == nil {
		s = &series{family: fam, labels: o.labelString()}
		r.byKey[key] = s
		fam.series = append(fam.series, s)
	}
	return s
}

// Counter returns the counter series named by o, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(o Opts) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(o, TypeCounter)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge series named by o, creating it on first use.
func (r *Registry) Gauge(o Opts) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(o, TypeGauge)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram series named by o with the given
// bucket upper bounds (ascending; a trailing +Inf bucket is implicit),
// creating it on first use. Re-lookups ignore buckets and return the
// existing series.
func (r *Registry) Histogram(o Opts, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(o, TypeHistogram)
	if s.h == nil {
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("metrics: %s buckets not ascending: %v", o.Name, buckets))
			}
		}
		s.h = &Histogram{bounds: append([]float64(nil), buckets...), counts: make([]uint64, len(buckets))}
	}
	return s.h
}

// Families returns the registered family names, sorted. No binary asks: it
// powers the docs-coverage tests (TestObservabilityDocCoverage,
// TestExecMetricsDocCoverage: every family must appear in
// docs/OBSERVABILITY.md).
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.order))
	for _, f := range r.order {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing value. The zero value is ready to
// use; all methods are no-ops on a nil receiver.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d, which must be non-negative.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	if d < 0 {
		panic("metrics: counter decreased")
	}
	c.v += d
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can go up and down.
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets chosen at
// registration. Buckets are cumulative at export time, OpenMetrics style.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []uint64  // per-bound counts (non-cumulative internally)
	inf    uint64    // observations above the last bound
	sum    float64
	count  uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

// ObserveN records n observations of value v in one call. The serving
// layer uses it to replay its wall-clock-side atomic bucket counts into a
// registry at export time (each bucket folded in at its upper bound).
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.count += n
	h.sum += v * float64(n)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i] += n
			return
		}
	}
	h.inf += n
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// ExpBuckets returns n bucket bounds starting at start and multiplying by
// factor — the standard shape for byte-size and duration histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
