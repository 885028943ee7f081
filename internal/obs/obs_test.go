package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins down the upper-inclusive bucket
// convention: an observation equal to a bound lands in that bound's
// bucket, and anything above the last bound lands in the overflow slot.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 10, 100}
	cases := []struct {
		name   string
		value  float64
		bucket int // index into counts; len(bounds) is overflow
	}{
		{"below first bound", 0.5, 0},
		{"exactly first bound", 1, 0},
		{"just above first bound", 1.0001, 1},
		{"exactly middle bound", 10, 1},
		{"interior", 42, 2},
		{"exactly last bound", 100, 2},
		{"above last bound", 101, 3},
		{"far overflow", 1e9, 3},
		{"zero", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(bounds)
			h.Observe(tc.value)
			for i := range h.counts {
				want := int64(0)
				if i == tc.bucket {
					want = 1
				}
				if got := h.counts[i].Load(); got != want {
					t.Errorf("Observe(%v): counts[%d] = %d, want %d", tc.value, i, got, want)
				}
			}
		})
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4})
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if h.Sum() != 8 {
		t.Fatalf("Sum = %v, want 8", h.Sum())
	}
	if h.Max() != 3.5 {
		t.Fatalf("Max = %v, want 3.5", h.Max())
	}
	// Rank 2 of 4 exhausts the second bucket (le=2) exactly, so linear
	// interpolation lands on its upper bound.
	if got := h.Quantile(0.50); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", got)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", got)
	}
	// Overflow observations are approximated by the max seen.
	h.Observe(50)
	if got := h.Quantile(0.99); got != 50 {
		t.Fatalf("overflow Quantile = %v, want 50 (the max)", got)
	}
}

func TestHistogramUnsortedBoundsPanic(t *testing.T) {
	// Bounds are part of the caller's contract; silently reordering them
	// (the old behaviour) hid bugs, so registration now panics instead.
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram with unsorted bounds must panic")
		}
	}()
	NewHistogram([]float64{10, 1, 5})
}

// TestCounterConcurrent exercises concurrent increments; run with -race.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	h := NewHistogram(LatencyBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.003)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("Counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("Gauge = %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("Histogram count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-workers*per*0.003) > 1e-6 {
		t.Fatalf("Histogram sum = %v, want %v", h.Sum(), workers*per*0.003)
	}
}

// TestName pins how a series is named in snapshots: the family name,
// then its labels in braces in the order the family declared them, with
// raw values.
func TestName(t *testing.T) {
	r := NewRegistry()
	r.Counter("dal_blob_puts_total")
	r.CounterVec("x_total", []string{"op"}, 0).With("put")
	r.CounterVec("y_total", []string{"op", "table"}, 0).With2("put", "models")
	var got []string
	for name := range r.Snapshot().Counters {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"dal_blob_puts_total", `x_total{op="put"}`, `y_total{op="put",table="models"}`}
	if !slices.Equal(got, want) {
		t.Errorf("series names = %q, want %q", got, want)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter handle not stable across get-or-create")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("Gauge handle not stable across get-or-create")
	}
	if r.Histogram("c", LatencyBuckets) != r.Histogram("c", LatencyBuckets) {
		t.Fatal("Histogram handle not stable across get-or-create")
	}
	// Other bounds are another metric under the same name: refused.
	mustPanic(t, func() { r.Histogram("c", SizeBuckets) })
}

func TestRegistryJSONRendering(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("ops_total", []string{"op"}, 0).With("put").Add(3)
	r.Gauge("cache_bytes").Set(1024)
	r.GaugeFunc("hit_ratio", func() float64 { return 0.75 })
	h := r.Histogram("req_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9) // overflow

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("rendered JSON spans %d lines, want one", n)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("rendered JSON does not parse: %v\n%s", err, buf.String())
	}
	if got := snap.Counters[`ops_total{op="put"}`]; got != 3 {
		t.Fatalf("counter round-trip = %d, want 3", got)
	}
	if snap.Gauges["cache_bytes"] != 1024 || snap.Gauges["hit_ratio"] != 0.75 {
		t.Fatalf("gauges round-trip = %v", snap.Gauges)
	}
	hs, ok := snap.Histograms["req_seconds"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 3 || hs.Max != 9 {
		t.Fatalf("histogram summary = %+v", hs)
	}
	want := []Bucket{{Le: "1", Count: 1}, {Le: "2", Count: 1}, {Le: "+Inf", Count: 1}}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", hs.Buckets, want)
	}
	for i := range want {
		if hs.Buckets[i] != want[i] {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, hs.Buckets[i], want[i])
		}
	}
}

func TestSumCounters(t *testing.T) {
	r := NewRegistry()
	requests := r.CounterVec("http_requests_total", []string{"route", "status"}, 0)
	requests.With2("a", "2xx").Add(2)
	requests.With2("b", "5xx").Add(1)
	r.Counter("other_total").Add(10)
	if got := r.SumCounters("http_requests_total"); got != 3 {
		t.Fatalf("SumCounters = %d, want 3", got)
	}
}
