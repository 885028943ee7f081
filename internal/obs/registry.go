package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named metrics and renders them to JSON. Handles returned
// by Counter/Gauge/Histogram are stable: callers on hot paths should fetch
// them once and reuse them. Get-or-create calls are cheap enough for
// dynamically labelled metrics (per-table, per-route).
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	gaugeFuncs  map[string]func() float64
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	histVecs    map[string]*HistogramVec
	help        map[string]string // family base name -> HELP text
}

// Default is the process-wide registry. Components default to it so a
// stock galleryd needs no wiring; tests that assert on metric values
// construct their own Registry for isolation.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		gaugeFuncs:  make(map[string]func() float64),
		hists:       make(map[string]*Histogram),
		counterVecs: make(map[string]*CounterVec),
		histVecs:    make(map[string]*HistogramVec),
		help:        make(map[string]string),
	}
}

// Help sets the HELP text the Prometheus exposition shows for the metric
// family base (its name without labels), in place of the generic line:
// for a metric whose name alone does not say what it measures.
func (r *Registry) Help(base, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[base] = text
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers (or replaces) a gauge whose value is computed at
// snapshot time — e.g. cache hit ratio or resident bytes. fn runs with
// the registry's lock held and must not call back into the registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// RemoveGaugeFunc drops a computed gauge — used when the object backing
// the closure goes away (e.g. a serving slot evicted from a cache), so
// snapshots stop reporting a value nobody maintains.
func (r *Registry) RemoveGaugeFunc(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.gaugeFuncs, name)
}

// RemoveGauge drops a plain gauge — used when the entity it describes is
// deleted (e.g. an SLO objective), so snapshots and scrapes stop showing
// a stale series.
func (r *Registry) RemoveGauge(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.gauges, name)
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if new. An existing histogram keeps its original
// bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = NewHistogram(bounds)
	r.hists[name] = h
	return h
}

// Bucket is one non-empty histogram bucket in a snapshot. Le is the
// bucket's upper bound ("+Inf" for the overflow bucket).
type Bucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// HistSnapshot summarizes a histogram at a point in time. Exemplars, when
// present, are the trace IDs behind the largest observations — follow
// them into /v1/debug/traces for the span tree that explains the tail.
type HistSnapshot struct {
	Count     int64      `json:"count"`
	Sum       float64    `json:"sum"`
	Max       float64    `json:"max"`
	P50       float64    `json:"p50"`
	P95       float64    `json:"p95"`
	P99       float64    `json:"p99"`
	Buckets   []Bucket   `json:"buckets,omitempty"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry. It
// marshals to the JSON served at /v1/debug/metrics (object keys come out
// sorted, so output is deterministic for a fixed state).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.gaugeFuncs)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFuncs {
		snap.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = histSnapshot(h)
	}
	for _, v := range r.counterVecs {
		v.snapshot(snap.Counters)
	}
	for _, v := range r.histVecs {
		v.each(func(name string, h *Histogram) {
			snap.Histograms[name] = histSnapshot(h)
		})
	}
	return snap
}

func histSnapshot(h *Histogram) HistSnapshot {
	hs := HistSnapshot{
		Count:     h.Count(),
		Sum:       h.Sum(),
		Max:       h.Max(),
		P50:       h.Quantile(0.50),
		P95:       h.Quantile(0.95),
		P99:       h.Quantile(0.99),
		Exemplars: h.Exemplars(),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: n})
	}
	return hs
}

// SumCounters returns the sum of every counter whose name starts with
// prefix — e.g. SumCounters("http_requests_total") totals requests across
// all route/status labels.
func (r *Registry) SumCounters(prefix string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for name, c := range r.counters {
		if strings.HasPrefix(name, prefix) {
			total += c.Value()
		}
	}
	for base, v := range r.counterVecs {
		if strings.HasPrefix(base, prefix) {
			total += v.sum()
		}
	}
	return total
}

// WriteJSON renders an indented JSON snapshot to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
