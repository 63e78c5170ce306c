// Package obs is the pipeline's observability layer: a dependency-free
// (standard library + internal/stats) metrics and tracing toolkit every
// stage of the record/replay/detect/classify pipeline reports into.
//
// The design follows two rules:
//
//  1. Nil is off. Every method is safe on a nil *Registry, nil *Counter,
//     nil *Gauge, nil *Histogram, and nil *Span, and does nothing. Code
//     can be instrumented unconditionally; passing no registry keeps the
//     uninstrumented hot paths identical to before (the recorder tallies
//     into plain ints and publishes once, at the end of the run).
//  2. Stages own names. Metric names are dot-separated, prefixed by the
//     stage that emits them ("record.loads_logged", "replay.regions",
//     "detect.region_pairs_examined", "classify.instances_sc",
//     "report.races_rendered"). Renderers sanitize the names for their
//     target format; see docs/OBSERVABILITY.md for the full catalog.
//
// Counters, gauges, and histograms are goroutine-safe. Spans are not:
// they model the pipeline's sequential stage structure (record → replay
// → detect → classify → report) and must be started and ended from one
// goroutine at a time. Concurrent stages — the suite's parallel offline
// analysis — get span safety through Fork/Adopt: each worker publishes
// spans into a private Fork of the registry (counters, gauges, and
// histograms still resolve to the shared namespace), and the driver
// folds the worker trees back into the main ladder with Adopt.
package obs

import (
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float value (a level, a ratio, a size).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// maxHistogramSamples bounds the per-histogram sample buffer. The first
// maxHistogramSamples observations are retained for percentile summaries
// (deterministic, unlike reservoir sampling); count/sum/min/max keep
// covering everything.
const maxHistogramSamples = 4096

// Histogram accumulates integer observations and summarizes them with
// the percentile machinery of internal/stats.
type Histogram struct {
	mu      sync.Mutex
	samples []int
	count   uint64
	sum     int64
	min     int
	max     int
}

// Observe records one sample. No-op on nil.
func (h *Histogram) Observe(v int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += int64(v)
	if len(h.samples) < maxHistogramSamples {
		h.samples = append(h.samples, v)
	}
}

// Registry is the root of one instrumented run: a namespace of counters,
// gauges, and histograms, plus the stage-span tree. The zero of the type
// is not useful; use NewRegistry. A nil *Registry disables everything.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	root *Span // anonymous holder of the top-level spans
	cur  *Span // innermost active span (nil = at root)

	// parent is set on worker views created by Fork: counters, gauges,
	// and histograms delegate to the base registry (they are already
	// goroutine-safe), while the span tree stays private to the fork
	// until Adopt folds it into the base ladder.
	parent *Registry

	// tl is the optional flight recorder (EnableTimeline); lane is this
	// view's event stream within it — lane 0 on the base registry, a
	// fresh lane per Fork. Both nil means the event path is off.
	tl   *Timeline
	lane *lane

	// logger is the optional structured logger (SetLogger); forkLogger
	// is a fork's lane-tagged view of it. Logger() falls back to a
	// disabled logger when unset.
	logger     *slog.Logger
	forkLogger *slog.Logger
}

// base resolves the registry the metric namespace lives in: the
// receiver itself, or the registry a Fork was taken from.
func (r *Registry) base() *Registry {
	b := r
	for b.parent != nil {
		b = b.parent
	}
	return b
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		root:     &Span{},
	}
	r.cur = r.root
	return r
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r = r.base()
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r = r.base()
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r = r.base()
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// sortedKeys returns map keys in stable order (rendering determinism).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
