// Package obs is Gallery's dependency-free observability substrate.
//
// The paper runs Gallery as a horizontally scaled stateless microservice
// (§4) whose operators watch storage and rule-engine behaviour in
// production; the model-management plane itself needs first-class
// monitoring. This package provides the three primitives that cover that
// need — atomic Counters, Gauges, and fixed-bucket Histograms with
// p50/p95/p99 summaries — behind a Registry that renders to JSON for
// GET /v1/debug/metrics and the CLI snapshot dumps.
//
// Metric naming scheme: snake_case family names suffixed with a unit
// (_total, _seconds, _bytes). Labels are never part of a name: a labelled
// metric is a family registered with its label keys (CounterVec,
// GaugeVec, HistogramVec), whose children are looked up by label values
// under a cardinality cap, and whose series render as
// relstore_ops_total{op="insert",table="instances"}.
//
// Everything here is safe for concurrent use and allocation-light on the
// hot path: a metric handle, once obtained from a Registry, updates with
// a single atomic operation.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count; a nil Counter (a family child that
// does not exist, see Vec.Peek) reads as 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value, or a read function.
type Gauge struct {
	bits atomic.Uint64
	fn   atomic.Pointer[func() float64]
}

// SetFunc makes the gauge report fn's result, computed at snapshot time,
// in place of the stored value. fn must not call back into the registry.
func (g *Gauge) SetFunc(fn func() float64) { g.fn.Store(&fn) }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the current value.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(g.bits.Load())
}

// Default bucket sets. Bounds are upper bounds; observations above the
// last bound land in an implicit overflow bucket.
var (
	// LatencyBuckets spans 100µs to 10s, suitable for request and
	// storage-op latencies in seconds.
	LatencyBuckets = []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// SizeBuckets spans 256B to 256MiB, suitable for body and blob sizes.
	SizeBuckets = []float64{
		256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
	}
)

// Histogram is a fixed-bucket histogram of float64 observations. Buckets
// are defined by sorted upper bounds; one extra overflow bucket catches
// observations above the last bound. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits; valid only when count > 0

	// Slow-trace exemplars: the trace IDs behind the largest observations,
	// so a fat top bucket in /v1/debug/metrics links directly to span
	// trees in /v1/debug/traces. exMin caches the smallest retained
	// exemplar value so the common case (not a new extreme) is one atomic
	// load, no lock.
	exMin     atomic.Uint64 // float64 bits; 0 until slots fill
	exMu      sync.Mutex
	exemplars []Exemplar
}

// exemplarSlots bounds retained exemplars per histogram.
const exemplarSlots = 4

// Exemplar ties one large observation to the trace that produced it.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// NewHistogram builds a histogram over the given upper bounds, which
// must be strictly ascending. Unsorted or duplicate bounds panic at
// registration time: silently reordering them (the old behaviour) hid
// caller bugs behind buckets that no longer meant what the call site
// said, and a duplicated bound made one bucket permanently empty.
func NewHistogram(bounds []float64) *Histogram {
	validateBounds(bounds)
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, counts: make([]atomic.Int64, len(cp)+1)}
}

// validateBounds panics unless bounds are strictly ascending.
func validateBounds(bounds []float64) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.max.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveSince records the elapsed wall-clock time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// ObserveExemplar records v and, when traceID is non-empty and v ranks
// among the largest observations seen, retains (v, traceID) as an
// exemplar. An empty traceID (request not traced) degrades to a plain
// Observe — the unsampled hot path pays one extra branch.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	// Fast reject: slots full and v no larger than the smallest retained.
	// exMin is zero until the slots fill, so early exemplars always pass.
	if v <= math.Float64frombits(h.exMin.Load()) {
		return
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if len(h.exemplars) < exemplarSlots {
		h.exemplars = append(h.exemplars, Exemplar{Value: v, TraceID: traceID})
		if len(h.exemplars) == exemplarSlots {
			h.exMin.Store(math.Float64bits(h.minExemplarLocked()))
		}
		return
	}
	minIdx := 0
	for i, ex := range h.exemplars {
		if ex.Value < h.exemplars[minIdx].Value {
			minIdx = i
		}
	}
	if v <= h.exemplars[minIdx].Value {
		return // lost a race with a larger concurrent observation
	}
	h.exemplars[minIdx] = Exemplar{Value: v, TraceID: traceID}
	h.exMin.Store(math.Float64bits(h.minExemplarLocked()))
}

// ObserveSinceExemplar is ObserveSince with exemplar attribution.
func (h *Histogram) ObserveSinceExemplar(start time.Time, traceID string) {
	h.ObserveExemplar(time.Since(start).Seconds(), traceID)
}

func (h *Histogram) minExemplarLocked() float64 {
	min := math.Inf(1)
	for _, ex := range h.exemplars {
		if ex.Value < min {
			min = ex.Value
		}
	}
	return min
}

// Exemplars returns retained exemplars, largest first.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	out := make([]Exemplar, len(h.exemplars))
	copy(out, h.exemplars)
	h.exMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// CountAtOrBelow returns how many observations landed in buckets whose
// upper bound is <= bound. This is the histogram-resolution answer to
// "how many requests finished within the threshold": thresholds between
// bucket bounds are effectively rounded down to the nearest bound, so
// SLO latency targets should sit on a bucket boundary for exactness.
func (h *Histogram) CountAtOrBelow(bound float64) int64 {
	var cum int64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		cum += h.counts[i].Load()
	}
	return cum
}

// Bounds returns the histogram's bucket upper bounds (shared slice; do
// not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCount returns the raw count of bucket i, where i == len(Bounds())
// addresses the overflow bucket.
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank. Observations
// in the overflow bucket are approximated by the maximum seen.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n < target {
			cum += n
			continue
		}
		if i == len(h.bounds) { // overflow bucket
			return h.Max()
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := (target - cum) / n
		return lo + (hi-lo)*frac
	}
	return h.Max()
}
