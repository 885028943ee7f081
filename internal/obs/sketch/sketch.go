// Package sketch provides mergeable, fixed-memory streaming sketches of
// value distributions for continuous model-health monitoring (paper
// §3.6). A Sketch is a two-sided log-bucketed histogram plus running
// count/sum/sum-of-squares/min/max: enough to recover mean, variance and
// a binned shape of the distribution at a few kilobytes per stream,
// regardless of traffic volume.
//
// The serving gateway records one Sketch per model stream (predicted
// values, latencies) on the predict hot path — Observe is a handful of
// atomic operations, no locks, no allocation — and periodically snapshots
// them onto the wire. Snapshots with identical geometry merge
// associatively, so windows can be re-aggregated anywhere downstream, and
// two snapshots can be compared with PSI or KL divergence to quantify
// distribution shift between a reference window and live traffic.
package sketch

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Config fixes a sketch's bucket geometry. Values with |v| in [Lo, Hi)
// land in one of Buckets log-spaced buckets per sign; |v| < Lo falls into
// a single center bucket and |v| >= Hi into a per-sign overflow bucket.
// Two sketches can be merged or compared only when their geometry is
// identical.
type Config struct {
	Lo      float64 // smallest resolved magnitude (default 1e-4)
	Hi      float64 // magnitudes >= Hi overflow (default 1e9)
	Buckets int     // log buckets per sign (default 128)
}

func (c *Config) defaults() {
	if c.Lo <= 0 {
		c.Lo = 1e-4
	}
	if c.Hi <= c.Lo {
		c.Hi = 1e9
	}
	if c.Buckets <= 0 {
		c.Buckets = 128
	}
}

// Sketch is the live, concurrently writable form. All methods are safe
// for concurrent use; Observe is lock-free and allocation-free.
type Sketch struct {
	cfg        Config
	invLogGama float64 // 1 / ln(gamma), gamma = (Hi/Lo)^(1/Buckets)

	// counts layout, for n = cfg.Buckets:
	//   [0]            negative overflow   (v <= -Hi)
	//   [1 .. n]       negative log buckets, largest magnitude first
	//   [n+1]          center bucket       (|v| < Lo)
	//   [n+2 .. 2n+1]  positive log buckets, smallest magnitude first
	//   [2n+2]         positive overflow   (v >= Hi)
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	sumSq  atomic.Uint64 // float64 bits
	min    atomic.Uint64 // float64 bits; +Inf until first Observe
	max    atomic.Uint64 // float64 bits; -Inf until first Observe
}

// New builds a sketch with the given geometry.
func New(cfg Config) *Sketch {
	cfg.defaults()
	s := &Sketch{
		cfg:        cfg,
		invLogGama: float64(cfg.Buckets) / math.Log(cfg.Hi/cfg.Lo),
		counts:     make([]atomic.Int64, 2*cfg.Buckets+3),
	}
	s.min.Store(math.Float64bits(math.Inf(1)))
	s.max.Store(math.Float64bits(math.Inf(-1)))
	return s
}

// index maps a value onto its bucket. NaN is mapped to the center bucket
// so a corrupt observation cannot panic the serving path.
func (s *Sketch) index(v float64) int {
	n := s.cfg.Buckets
	m := math.Abs(v)
	if !(m >= s.cfg.Lo) { // |v| < Lo, or NaN
		return n + 1
	}
	if m >= s.cfg.Hi {
		if v > 0 {
			return 2*n + 2
		}
		return 0
	}
	k := int(math.Log(m/s.cfg.Lo) * s.invLogGama)
	if k >= n { // float round-off at the top edge
		k = n - 1
	}
	if v > 0 {
		return n + 2 + k
	}
	return n - k
}

// Observe records one value.
func (s *Sketch) Observe(v float64) {
	s.counts[s.index(v)].Add(1)
	s.count.Add(1)
	casAdd(&s.sum, v)
	casAdd(&s.sumSq, v*v)
	for {
		old := s.min.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if s.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := s.max.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if s.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

func casAdd(a *atomic.Uint64, d float64) {
	for {
		old := a.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if a.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (s *Sketch) Count() int64 { return s.count.Load() }

// Config returns the sketch's geometry.
func (s *Sketch) Geometry() Config { return s.cfg }

// Snapshot captures the sketch's current state as a plain, serializable
// value. Concurrent Observe calls may or may not be included; the
// snapshot is internally consistent enough for monitoring (counts and
// moments can disagree by in-flight observations).
func (s *Sketch) Snapshot() Snapshot {
	snap := Snapshot{
		Lo:      s.cfg.Lo,
		Hi:      s.cfg.Hi,
		Buckets: s.cfg.Buckets,
		Count:   s.count.Load(),
		Sum:     math.Float64frombits(s.sum.Load()),
		SumSq:   math.Float64frombits(s.sumSq.Load()),
	}
	if snap.Count > 0 {
		snap.Min = math.Float64frombits(s.min.Load())
		snap.Max = math.Float64frombits(s.max.Load())
		snap.Counts = make([]int64, len(s.counts))
		for i := range s.counts {
			snap.Counts[i] = s.counts[i].Load()
		}
	}
	return snap
}

// Snapshot is the frozen, wire-serializable form of a Sketch. Counts is
// nil for an empty snapshot and otherwise has length 2*Buckets+3 using
// the layout documented on Sketch.
type Snapshot struct {
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Buckets int     `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum,omitempty"`
	SumSq   float64 `json:"sum_sq,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Counts  []int64 `json:"counts,omitempty"`
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Variance returns the population variance, clamped at 0 against float
// round-off, or 0 with no observations.
func (s Snapshot) Variance() float64 {
	if s.Count == 0 {
		return 0
	}
	m := s.Mean()
	v := s.SumSq/float64(s.Count) - m*m
	if v < 0 {
		return 0
	}
	return v
}

// Std returns the population standard deviation.
func (s Snapshot) Std() float64 { return math.Sqrt(s.Variance()) }

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucketed
// counts: the overflow buckets resolve to Min and Max, the center bucket
// to 0 and log buckets to their outer edge (a conservative estimate with
// at most one bucket-width of relative error), every estimate clamped
// into [Min, Max]. The estimate never falls as q rises, also for a
// snapshot off the wire whose Min and Max disagree with its buckets.
// Returns 0 with no observations or a malformed snapshot.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 || s.Validate() != nil {
		return 0
	}
	// Each bucket's edge rises with its index, and clamping keeps the
	// order: so does the estimate.
	clamp := func(v float64) float64 { return math.Max(s.Min, math.Min(s.Max, v)) }
	n := s.Buckets
	gamma := math.Pow(s.Hi/s.Lo, 1/float64(n))
	target := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum < target {
			continue
		}
		switch {
		case i == 0: // negative overflow
			return clamp(math.Inf(-1))
		case i <= n: // negative log bucket n-k → lower (more negative) edge
			k := n - i
			return clamp(-s.Lo * math.Pow(gamma, float64(k+1)))
		case i == n+1: // center
			return clamp(0)
		case i <= 2*n+1: // positive log bucket
			k := i - n - 2
			return clamp(s.Lo * math.Pow(gamma, float64(k+1)))
		default: // positive overflow
			return clamp(math.Inf(1))
		}
	}
	return clamp(math.Inf(1))
}

// sameGeometry reports whether two snapshots can be merged or compared.
func (s Snapshot) sameGeometry(o Snapshot) bool {
	return s.Lo == o.Lo && s.Hi == o.Hi && s.Buckets == o.Buckets
}

// Validate rejects snapshots whose bucket array does not match their
// declared geometry — a guard for snapshots arriving off the wire.
func (s Snapshot) Validate() error {
	if s.Buckets <= 0 || s.Lo <= 0 || s.Hi <= s.Lo {
		return fmt.Errorf("sketch: bad geometry (lo=%g hi=%g n=%d)", s.Lo, s.Hi, s.Buckets)
	}
	if s.Count < 0 {
		return fmt.Errorf("sketch: negative count %d", s.Count)
	}
	if s.Count > 0 && len(s.Counts) != 2*s.Buckets+3 {
		return fmt.Errorf("sketch: %d buckets need %d counts, got %d",
			s.Buckets, 2*s.Buckets+3, len(s.Counts))
	}
	for i, c := range s.Counts {
		if c < 0 {
			return fmt.Errorf("sketch: negative count %d in bucket %d", c, i)
		}
	}
	return nil
}

// Merge folds o into s and returns the combined snapshot. Merging is
// commutative and associative, so windows can be re-aggregated in any
// order. It fails when the geometries differ, either snapshot is invalid,
// or a count would overflow.
func (s Snapshot) Merge(o Snapshot) (Snapshot, error) {
	// A zero-value Snapshot (no geometry, no data) is the merge identity,
	// so accumulators can start from Snapshot{} without knowing the
	// geometry in advance.
	if s.Buckets == 0 && s.Count == 0 {
		if err := o.Validate(); err != nil {
			return Snapshot{}, err
		}
		return o, nil
	}
	if o.Buckets == 0 && o.Count == 0 {
		if err := s.Validate(); err != nil {
			return Snapshot{}, err
		}
		return s, nil
	}
	if !s.sameGeometry(o) {
		return Snapshot{}, fmt.Errorf(
			"sketch: geometry mismatch: (lo=%g hi=%g n=%d) vs (lo=%g hi=%g n=%d)",
			s.Lo, s.Hi, s.Buckets, o.Lo, o.Hi, o.Buckets)
	}
	if err := s.Validate(); err != nil {
		return Snapshot{}, err
	}
	if err := o.Validate(); err != nil {
		return Snapshot{}, err
	}
	if o.Count == 0 {
		return s, nil
	}
	if s.Count == 0 {
		return o, nil
	}
	if s.Count > math.MaxInt64-o.Count {
		return Snapshot{}, fmt.Errorf("sketch: merged count overflows (%d + %d)", s.Count, o.Count)
	}
	out := s
	out.Count += o.Count
	out.Sum += o.Sum
	out.SumSq += o.SumSq
	out.Min = math.Min(s.Min, o.Min)
	out.Max = math.Max(s.Max, o.Max)
	out.Counts = make([]int64, len(s.Counts))
	copy(out.Counts, s.Counts)
	for i, c := range o.Counts {
		if out.Counts[i] > math.MaxInt64-c {
			return Snapshot{}, fmt.Errorf("sketch: merged bucket %d overflows", i)
		}
		out.Counts[i] += c
	}
	return out, nil
}

// psiEpsilon smooths empty buckets so PSI/KL stay finite when one side
// has mass where the other has none — the interesting case for drift.
const psiEpsilon = 1e-6

// PSI computes the Population Stability Index between a reference
// snapshot and a live one: sum over buckets of (q-p)·ln(q/p) with
// Laplace-style smoothing. Common operating points: < 0.1 stable,
// 0.1–0.25 moderate shift, > 0.25 significant shift.
func PSI(ref, live Snapshot) (float64, error) {
	return divergence(ref, live, func(p, q float64) float64 {
		return (q - p) * math.Log(q/p)
	})
}

// KL computes the Kullback-Leibler divergence D(live ‖ ref) over the
// binned distributions, with the same smoothing as PSI.
func KL(ref, live Snapshot) (float64, error) {
	return divergence(ref, live, func(p, q float64) float64 {
		return q * math.Log(q/p)
	})
}

func divergence(ref, live Snapshot, term func(p, q float64) float64) (float64, error) {
	if !ref.sameGeometry(live) {
		return 0, fmt.Errorf(
			"sketch: geometry mismatch: (lo=%g hi=%g n=%d) vs (lo=%g hi=%g n=%d)",
			ref.Lo, ref.Hi, ref.Buckets, live.Lo, live.Hi, live.Buckets)
	}
	if ref.Count == 0 || live.Count == 0 {
		return 0, fmt.Errorf("sketch: divergence needs observations on both sides (ref=%d live=%d)",
			ref.Count, live.Count)
	}
	if err := ref.Validate(); err != nil {
		return 0, err
	}
	if err := live.Validate(); err != nil {
		return 0, err
	}
	k := float64(len(ref.Counts))
	refTotal := float64(ref.Count) + psiEpsilon*k
	liveTotal := float64(live.Count) + psiEpsilon*k
	var sum float64
	for i := range ref.Counts {
		p := (float64(ref.Counts[i]) + psiEpsilon) / refTotal
		q := (float64(live.Counts[i]) + psiEpsilon) / liveTotal
		sum += term(p, q)
	}
	return sum, nil
}
