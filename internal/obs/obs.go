// Package obs provides the decode pipeline's observability primitives:
// lock-free counters, gauges and fixed-bucket histograms behind a Registry
// with a deterministic JSON Snapshot, a structured decode-event tracer, and
// an HTTP debug surface (/metrics, /debug/flight, /debug/pprof).
//
// Every metric operation is nil-safe: a *Counter, *Gauge or *Histogram
// obtained from a nil *Registry is nil, and operations on it are no-ops
// that never touch the clock or allocate. Instrumented hot paths therefore
// resolve their metric handles once at construction and pay only a
// pointer-nil test per operation when observability is disabled.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Now returns the current wall-clock time. It is the sanctioned clock
// access point for decode-stage code: the clockinject analyzer forbids
// direct time.Now there, so timing flows through this package, where it
// can be correlated with the metrics it feeds.
func Now() time.Time { return time.Now() }

// Since returns the elapsed time from t, or 0 for a zero t (the Start of
// a disabled histogram), mirroring the package's nil-safe conventions.
func Since(t time.Time) time.Duration {
	if t.IsZero() {
		return 0
	}
	return time.Since(t)
}

// Counter is a monotonically increasing lock-free counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a lock-free instantaneous value (queue depth, buffer occupancy).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket lock-free histogram. Bucket i counts
// observations v <= bounds[i] (and above all prior bounds); one overflow
// bucket counts observations above the last bound. Durations are observed
// in seconds.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value. No-op on a nil receiver.
//
// Non-finite values are handled so a hostile observation can never
// poison the snapshot (NaN/Inf do not survive JSON encoding and would
// break every scrape thereafter): NaN observations are dropped
// entirely, and ±Inf observations are bucketed (overflow / first
// bucket) and counted but contribute nothing to the sum.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	if math.IsInf(v, 0) {
		return
	}
	for {
		old := h.sum.Load()
		next := floatBits(bitsFloat(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Start returns the current time for a later Since call, or the zero time
// on a nil receiver — so a disabled histogram never reads the clock.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since observes the elapsed seconds from t. No-op on a nil receiver or a
// zero t (the Start of a nil histogram).
func (h *Histogram) Since(t time.Time) {
	if h == nil || t.IsZero() {
		return
	}
	h.Observe(time.Since(t).Seconds())
}

// ObserveDuration records d in seconds. No-op on a nil receiver.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// DurationBuckets are the default histogram bounds for stage wall times, in
// seconds: 1 µs to 10 s by decades, with a half-decade point per decade.
var DurationBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

// SizeBuckets are the default histogram bounds for small cardinalities
// (collision-set sizes, queue depths).
var SizeBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// Registry is a named collection of metrics. The zero Registry is not
// usable; create one with NewRegistry. All methods are safe for concurrent
// use, and every method on a nil *Registry is a no-op returning nil/zero
// values, which is the disabled fast path.
type Registry struct {
	start time.Time

	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	histograms  map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
}

// NewRegistry creates an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		start:       time.Now(),
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		histograms:  map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		gaugeVecs:   map[string]*GaugeVec{},
	}
}

// Counter returns the named counter, registering it on first use. Returns
// nil (the no-op counter) on a nil registry.
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

// Gauge returns the named gauge, registering it on first use. Returns nil
// on a nil registry.
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

// Histogram returns the named histogram, registering it with the given
// bucket bounds on first use (bounds must be sorted ascending; later calls
// reuse the registered buckets). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// CounterVec returns the named labeled counter family, registering it
// on first use with the given label names and series cap (0 selects
// DefaultMaxSeries; later calls reuse the registered family). Returns
// nil (the no-op family) on a nil registry.
func (r *Registry) CounterVec(name string, labels []string, limit int) *CounterVec {
	if r == nil {
		return nil
	}
	evicted := r.Counter(MetricLabelsEvicted)
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counterVecs[name]
	if !ok {
		v = &CounterVec{name: name, labels: append([]string(nil), labels...)}
		v.lru = newLRUSeries(limit, evicted)
		r.counterVecs[name] = v
	}
	return v
}

// GaugeVec returns the named labeled gauge family; see CounterVec.
func (r *Registry) GaugeVec(name string, labels []string, limit int) *GaugeVec {
	if r == nil {
		return nil
	}
	evicted := r.Counter(MetricLabelsEvicted)
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gaugeVecs[name]
	if !ok {
		v = &GaugeVec{name: name, labels: append([]string(nil), labels...)}
		v.lru = newLRUSeries(limit, evicted)
		r.gaugeVecs[name] = v
	}
	return v
}

// Snapshot is a point-in-time copy of every registered metric. Maps
// marshal with sorted keys and labeled series are sorted by label
// values, so the JSON encoding of equal snapshots is byte-identical.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`

	// Labeled families (empty maps when none are registered).
	CounterVecs map[string]VecSnapshot `json:"counter_vecs"`
	GaugeVecs   map[string]VecSnapshot `json:"gauge_vecs"`
}

// VecSnapshot is one labeled counter or gauge family: label names plus
// every live series, sorted by label values.
type VecSnapshot struct {
	Labels []string      `json:"labels"`
	Series []SeriesInt64 `json:"series"`
}

// SeriesInt64 is one labeled int64 series value.
type SeriesInt64 struct {
	Values []string `json:"values"`
	Value  int64    `json:"value"`
}

// HistogramSnapshot is one histogram's state: per-bucket (non-cumulative)
// counts aligned with the bucket upper bounds, plus totals.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`  // bucket upper bounds, ascending
	Buckets []int64   `json:"buckets"` // len(Bounds)+1; last is overflow
}

// Mean returns the mean observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0..1) from the bucket counts, via
// linear interpolation inside the owning bucket. Observations above the
// last bound report the last bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, c := range h.Buckets {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			frac := 1 - (float64(cum)-rank)/float64(c)
			return lo + frac*(hi-lo)
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// snapshotHistogram copies one histogram's state.
func snapshotHistogram(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{
		Count:   h.n.Load(),
		Sum:     bitsFloat(h.sum.Load()),
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		hs.Buckets[i] = h.counts[i].Load()
	}
	return hs
}

// Snapshot captures every registered metric. On a nil registry it returns
// a zero Snapshot with non-nil empty maps (so callers can range/marshal it
// without nil checks).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:    map[string]int64{},
		Gauges:      map[string]int64{},
		Histograms:  map[string]HistogramSnapshot{},
		CounterVecs: map[string]VecSnapshot{},
		GaugeVecs:   map[string]VecSnapshot{},
	}
	if r == nil {
		return s
	}
	s.UptimeSeconds = time.Since(r.start).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = snapshotHistogram(h)
	}
	for name, v := range r.counterVecs {
		v.mu.Lock()
		vs := VecSnapshot{Labels: append([]string(nil), v.labels...), Series: []SeriesInt64{}}
		for _, e := range v.lru.sortedEntries() {
			vs.Series = append(vs.Series, SeriesInt64{
				Values: append([]string(nil), e.values...),
				Value:  e.metric.(*Counter).Value(),
			})
		}
		v.mu.Unlock()
		s.CounterVecs[name] = vs
	}
	for name, v := range r.gaugeVecs {
		v.mu.Lock()
		vs := VecSnapshot{Labels: append([]string(nil), v.labels...), Series: []SeriesInt64{}}
		for _, e := range v.lru.sortedEntries() {
			vs.Series = append(vs.Series, SeriesInt64{
				Values: append([]string(nil), e.values...),
				Value:  e.metric.(*Gauge).Value(),
			})
		}
		v.mu.Unlock()
		s.GaugeVecs[name] = vs
	}
	return s
}
