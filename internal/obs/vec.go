package obs

import (
	"slices"
	"sync"
)

// Metric families with bounded cardinality.
//
// Every metric is a family: a kind (counter, gauge or histogram), zero to
// two label keys, bucket bounds for histograms, and children keyed by
// their raw label values (a comparable struct, so the steady-state lookup
// allocates nothing). An unlabelled metric is a family with no labels and
// exactly one child, which Registry.Counter, Gauge and Histogram return.
// A labelled family enforces an explicit cardinality cap: once its limit
// of distinct label sets exists, further label values collapse into a
// single overflow child labelled OverflowLabel. That bound is the defence
// against label values a caller controls (tenant names, model IDs, audit
// actions from a request body): cycling through them can only inflate
// one overflow series, never grow the registry.

// DefaultVecCardinality is the per-family child cap used when a caller
// passes none: generous for realistic tenant and model counts, small
// enough that a label-explosion attack stays bounded.
const DefaultVecCardinality = 1024

// OverflowLabel is the synthetic label value that absorbs every series
// beyond a family's cardinality cap.
const OverflowLabel = "_overflow"

// vecKey is a child's label values; unused positions are "".
type vecKey struct{ a, b string }

// Metric is the set of child types a family holds.
type Metric interface{ *Counter | *Gauge | *Histogram }

// Vec is one metric family. With/With2 are safe for concurrent use and
// allocation-free once a child exists.
type Vec[M Metric] struct {
	name   string
	labels []string  // 0, 1 or 2 label keys
	bounds []float64 // histogram families only
	limit  int
	only   M // the one child of an unlabelled family

	mu       sync.RWMutex
	children map[vecKey]M // the overflow child, once made, sits at overflowKey
}

// The three kinds of family.
type (
	CounterVec   = Vec[*Counter]
	GaugeVec     = Vec[*Gauge]
	HistogramVec = Vec[*Histogram]
)

// family is what the registry reads of any Vec.
type family interface {
	meta() (name string, labels []string)
	kind() string
	each(visit func(k vecKey, m any))
}

func newVec[M Metric](name string, labels []string, bounds []float64, limit int) *Vec[M] {
	if len(labels) > 2 {
		panic("obs: a metric carries at most two labels, got " + name)
	}
	validateBounds(bounds)
	if limit <= 0 {
		limit = DefaultVecCardinality
	}
	v := &Vec[M]{name: name, labels: slices.Clone(labels), bounds: slices.Clone(bounds), limit: limit,
		children: make(map[vecKey]M)}
	if len(labels) == 0 {
		v.only = v.newChild()
		v.children[vecKey{}] = v.only
	}
	return v
}

func (v *Vec[M]) newChild() M {
	var m M
	switch p := any(&m).(type) {
	case **Counter:
		*p = new(Counter)
	case **Gauge:
		*p = new(Gauge)
	case **Histogram:
		*p = NewHistogram(v.bounds)
	}
	return m
}

func (v *Vec[M]) meta() (string, []string) { return v.name, v.labels }

func (v *Vec[M]) kind() string {
	switch any(v.only).(type) { // a nil pointer still carries its type
	case *Counter:
		return "counter"
	case *Gauge:
		return "gauge"
	}
	return "histogram"
}

func (v *Vec[M]) each(visit func(k vecKey, m any)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for k, m := range v.children {
		visit(k, m)
	}
}

func (v *Vec[M]) overflowKey() vecKey {
	k := vecKey{a: OverflowLabel}
	if len(v.labels) == 2 {
		k.b = OverflowLabel
	}
	return k
}

// With returns the child for a one-label family, creating it if new.
func (v *Vec[M]) With(a string) M {
	if len(v.labels) != 1 {
		panic("obs: With on " + v.name + ", which does not carry one label")
	}
	return v.child(vecKey{a: a})
}

// With2 returns the child for a two-label family, creating it if new.
func (v *Vec[M]) With2(a, b string) M {
	if len(v.labels) != 2 {
		panic("obs: With2 on " + v.name + ", which does not carry two labels")
	}
	return v.child(vecKey{a: a, b: b})
}

func (v *Vec[M]) child(k vecKey) M {
	v.mu.RLock()
	m, ok := v.children[k]
	if !ok && v.lenLocked() >= v.limit {
		m, ok = v.children[v.overflowKey()]
	}
	v.mu.RUnlock()
	if ok {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok := v.children[k]; ok {
		return m
	}
	if v.lenLocked() >= v.limit {
		k = v.overflowKey()
		if m, ok := v.children[k]; ok {
			return m
		}
	}
	m = v.newChild()
	v.children[k] = m
	return m
}

// Peek returns a one-label family's child if it exists, else nil (which
// Counter.Value reads as 0): readers such as the SLO evaluator must not
// create series for targets that saw no traffic.
func (v *Vec[M]) Peek(a string) M { return v.peek(vecKey{a: a}) }

// Peek2 is Peek for two-label families.
func (v *Vec[M]) Peek2(a, b string) M { return v.peek(vecKey{a: a, b: b}) }

func (v *Vec[M]) peek(k vecKey) M {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.children[k]
}

// Delete drops a one-label family's child, so snapshots and scrapes stop
// showing a series whose subject is gone (an evicted model, a deleted
// objective).
func (v *Vec[M]) Delete(a string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.children, vecKey{a: a})
}

// Len reports how many distinct children exist, the overflow child
// excluded.
func (v *Vec[M]) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.lenLocked()
}

func (v *Vec[M]) lenLocked() int {
	n := len(v.children)
	if _, ok := v.children[v.overflowKey()]; ok {
		n--
	}
	return n
}

// register returns the family registered under name, creating it if new.
// Registering a name again as another kind, or with other labels or
// bounds, panics: one name is one family.
func register[M Metric](r *Registry, name string, labels []string, bounds []float64, limit int) *Vec[M] {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		nv := newVec[M](name, labels, bounds, limit) // a bad spec panics before any lock is held
		r.mu.Lock()
		if f, ok = r.fams[name]; !ok {
			f = nv
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	v, same := f.(*Vec[M])
	if !same || !slices.Equal(v.labels, labels) || !slices.Equal(v.bounds, bounds) {
		panic("obs: " + name + " registered again with another kind, labels or bounds")
	}
	return v
}

// CounterVec returns the counter family registered under name, creating
// it if new. An existing family keeps its original limit.
func (r *Registry) CounterVec(name string, labels []string, limit int) *CounterVec {
	return register[*Counter](r, name, labels, nil, limit)
}

// GaugeVec returns the gauge family registered under name, creating it if
// new.
func (r *Registry) GaugeVec(name string, labels []string, limit int) *GaugeVec {
	return register[*Gauge](r, name, labels, nil, limit)
}

// HistogramVec returns the histogram family registered under name,
// creating it with the given strictly ascending bounds if new.
func (r *Registry) HistogramVec(name string, labels []string, bounds []float64, limit int) *HistogramVec {
	return register[*Histogram](r, name, labels, bounds, limit)
}
