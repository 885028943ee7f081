package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Registry holds named metric families and renders them to JSON and the
// Prometheus exposition. Handles returned by Counter/Gauge/Histogram and
// by a family's With are stable: callers on hot paths should fetch them
// once and reuse them.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]family
	help map[string]string // family name -> HELP text
}

// Default is the process-wide registry. Components default to it so a
// stock galleryd needs no wiring; tests that assert on metric values
// construct their own Registry for isolation.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]family), help: make(map[string]string)}
}

// Help sets the HELP text the Prometheus exposition shows for the metric
// family name, in place of the generic line: for a metric whose name
// alone does not say what it measures.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// Counter returns the unlabelled counter registered under name, creating
// it if new.
func (r *Registry) Counter(name string) *Counter {
	return register[*Counter](r, name, nil, nil, 0).only
}

// Gauge returns the unlabelled gauge registered under name, creating it
// if new.
func (r *Registry) Gauge(name string) *Gauge {
	return register[*Gauge](r, name, nil, nil, 0).only
}

// GaugeFunc makes the unlabelled gauge name read fn at snapshot time —
// e.g. cache hit ratio or resident bytes. fn runs with the registry's
// lock held and must not call back into the registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.Gauge(name).SetFunc(fn)
}

// Histogram returns the unlabelled histogram registered under name,
// creating it with the given bucket bounds if new.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return register[*Histogram](r, name, nil, bounds, 0).only
}

// labelBlock renders a child's labels as {k="v",...}, or "" for an
// unlabelled family, passing each value through esc.
func labelBlock(keys []string, k vecKey, esc func(string) string) string {
	switch len(keys) {
	case 0:
		return ""
	case 1:
		return "{" + keys[0] + `="` + esc(k.a) + `"}`
	}
	return "{" + keys[0] + `="` + esc(k.a) + `",` + keys[1] + `="` + esc(k.b) + `"}`
}

func raw(s string) string { return s }

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

// Snapshot is a point-in-time copy of every metric in a registry, keyed
// by series name: the family name followed by its labels in braces in
// registration order, e.g. relstore_ops_total{op="insert",table="models"}.
// It marshals to the JSON served at /v1/debug/metrics (object keys come
// out sorted, so output is deterministic for a fixed state).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistSnapshot),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.fams {
		name, labels := f.meta()
		f.each(func(k vecKey, m any) {
			key := name + labelBlock(labels, k, raw)
			switch m := m.(type) {
			case *Counter:
				snap.Counters[key] = m.Value()
			case *Gauge:
				snap.Gauges[key] = m.Value()
			case *Histogram:
				snap.Histograms[key] = histSnapshot(m)
			}
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

// SumCounters returns the sum of every counter in the families whose
// name starts with prefix — e.g. SumCounters("http_requests_total")
// totals requests across all route/status labels.
func (r *Registry) SumCounters(prefix string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for name, f := range r.fams {
		if strings.HasPrefix(name, prefix) {
			f.each(func(_ vecKey, m any) {
				if c, ok := m.(*Counter); ok {
					total += c.Value()
				}
			})
		}
	}
	return total
}

// WriteJSON writes the snapshot to w as one line of JSON, so that it sits
// on a stream of JSON-lines log records (galleryd's stderr) as one more.
func (r *Registry) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.Snapshot())
}
