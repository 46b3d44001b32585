// Package obs is the observability layer: a lock-cheap metrics registry
// (counters, gauges, duration histograms) plus a ring-buffered
// structured event tracer. It exists so the cost of the pipeline — how
// many probes each platform issued, how many constraint proposals an
// engine recomputed, how long each phase took — is measurable without a
// profiler, the way the paper's evaluation measures budgets (probes per
// platform, Table 1; convergence per targeted traceroute, Figure 7).
//
// Two design rules keep it out of the hot path:
//
//   - Disabled means free. Every handle (*Obs, *Counter, *Gauge,
//     *Histogram, *Tracer) is nil-safe: methods on a nil receiver are
//     no-ops that inline to a single pointer test, so uninstrumented
//     code paths pay one predictable branch, no allocation, no lock.
//     Instrumented packages resolve their handles once at Instrument
//     time, never per operation.
//
//   - Enabled means atomic. Counter and gauge updates are single
//     atomic adds/stores; histograms are a fixed array of atomic
//     buckets. The registry's mutex guards only handle registration
//     (once per name), never the update path, so concurrent goroutines
//     (the daemon's request handlers) can bump shared counters without
//     serialising.
//
// Observation never feeds back into inference: nothing in this package
// is consulted by the CFS engines, so metrics-on and metrics-off runs
// produce bit-for-bit identical Results (the engine differential test
// runs both ways).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.Add(1)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable level. The zero value is ready; nil discards.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a duration histogram:
// exponential, bucket i covering [2^i µs, 2^(i+1) µs), with the last
// bucket open-ended. 2^20 µs ≈ 1s, so the range spans sub-microsecond
// phases to multi-second campaigns.
const histBuckets = 22

// Histogram records durations in exponential buckets. The zero value is
// ready; a nil *Histogram discards observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(ns)].Add(1)
}

func bucketOf(ns int64) int {
	us := ns / 1000
	b := 0
	for us > 0 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// HistogramStats is a histogram's exported summary. Buckets carries
// the per-bucket observation counts — bucket i covers [2^(i-1) µs,
// 2^i µs) with bucket 0 holding sub-microsecond observations and the
// last bucket open-ended — trimmed of trailing zero buckets so idle
// histograms stay compact. A latency endpoint (the daemon's /metrics)
// needs the distribution, not just count/mean/max: a mean hides the
// tail that a per-request timeout budget is set against.
type HistogramStats struct {
	Count   int64         `json:"count"`
	Sum     time.Duration `json:"sum_ns"`
	Mean    time.Duration `json:"mean_ns"`
	Max     time.Duration `json:"max_ns"`
	Buckets []int64       `json:"bucket_counts,omitempty"`
}

// Stats summarises the histogram (zero stats for nil).
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	s := HistogramStats{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
	}
	last := -1
	var buckets [histBuckets]int64
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
		if buckets[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]int64(nil), buckets[:last+1]...)
	}
	return s
}

// Registry holds named metrics. A nil *Registry hands out nil handles,
// so every metric update downstream becomes a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric, suitable for
// rendering or JSON emission.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

func emptySnapshot() Snapshot {
	return Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramStats),
	}
}

// Snapshot copies the current metric values (empty snapshot for nil).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return emptySnapshot()
	}
	s := emptySnapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Stats()
	}
	return s
}

// Render prints the snapshot as an aligned name/value listing, sorted
// by metric name within each section.
func (s Snapshot) Render() string {
	var b strings.Builder
	section := func(title string, names []string, line func(string)) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s:\n", title)
		for _, n := range names {
			line(n)
		}
	}
	var cn, gn, hn []string
	for n := range s.Counters {
		cn = append(cn, n)
	}
	for n := range s.Gauges {
		gn = append(gn, n)
	}
	for n := range s.Histograms {
		hn = append(hn, n)
	}
	section("counters", cn, func(n string) {
		fmt.Fprintf(&b, "  %-44s %d\n", n, s.Counters[n])
	})
	section("gauges", gn, func(n string) {
		fmt.Fprintf(&b, "  %-44s %d\n", n, s.Gauges[n])
	})
	section("histograms", hn, func(n string) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "  %-44s n=%d mean=%v max=%v\n", n, h.Count, h.Mean, h.Max)
	})
	return b.String()
}

// WriteJSON emits the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Obs bundles a metrics registry and an event tracer. A nil *Obs
// disables both; either field may also be nil independently.
type Obs struct {
	Metrics *Registry
	Tracer  *Tracer
}

// New builds an Obs with a registry and a tracer of the given event
// capacity (capacity <= 0 disables tracing).
func New(traceCapacity int) *Obs {
	o := &Obs{Metrics: NewRegistry()}
	if traceCapacity > 0 {
		o.Tracer = NewTracer(traceCapacity)
	}
	return o
}

// Counter resolves a counter handle (nil when disabled).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge resolves a gauge handle (nil when disabled).
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram resolves a histogram handle (nil when disabled).
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// Emit appends one event to the tracer (no-op when disabled).
func (o *Obs) Emit(kind string, fields ...Field) {
	if o == nil {
		return
	}
	o.Tracer.Emit(kind, fields...)
}
