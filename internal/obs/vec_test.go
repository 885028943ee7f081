package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterVecChildrenAndGet(t *testing.T) {
	v := NewRegistry().CounterVec("tenant_http_requests_total", []string{"namespace"}, 8)
	v.With("ads").Inc()
	v.With("ads").Inc()
	v.With("maps").Add(5)
	if got := v.Peek("ads").Value(); got != 2 {
		t.Fatalf("ads = %d, want 2", got)
	}
	if got := v.Peek("maps").Value(); got != 5 {
		t.Fatalf("maps = %d, want 5", got)
	}
	if got := v.Peek("absent").Value(); got != 0 {
		t.Fatalf("absent = %d, want 0", got)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
}

func TestCounterVecTwoLabels(t *testing.T) {
	v := NewRegistry().CounterVec("serve_predict_requests_total", []string{"namespace", "model"}, 8)
	v.With2("ads", "ctr").Inc()
	if got := v.Peek2("ads", "ctr").Value(); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
	// Distinct label positions must not collide.
	if got := v.Peek2("ctr", "ads").Value(); got != 0 {
		t.Fatalf("swapped labels = %d, want 0", got)
	}
}

func TestCounterVecOverflowCap(t *testing.T) {
	const cap = 4
	r := NewRegistry()
	v := r.CounterVec("x_total", []string{"namespace"}, cap)
	for i := 0; i < cap; i++ {
		v.With(fmt.Sprintf("ns%d", i)).Inc()
	}
	// Everything beyond the cap lands in one shared overflow child.
	for i := cap; i < cap+10; i++ {
		v.With(fmt.Sprintf("ns%d", i)).Inc()
	}
	if v.Len() != cap {
		t.Fatalf("Len = %d, want %d (cap enforced)", v.Len(), cap)
	}
	if of := r.Snapshot().Counters[`x_total{namespace="_overflow"}`]; of != 10 {
		t.Fatalf("overflow = %d, want 10", of)
	}
	// Existing children still addressable after the cap is hit.
	v.With("ns0").Inc()
	if got := v.Peek("ns0").Value(); got != 2 {
		t.Fatalf("ns0 = %d, want 2", got)
	}
}

func TestCounterVecConcurrentTenantsBounded(t *testing.T) {
	const cap = 16
	r := NewRegistry()
	v := r.CounterVec("x_total", []string{"namespace"}, cap)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// Each goroutine cycles through far more label values than
				// the cap; growth must stay bounded under contention.
				v.With(fmt.Sprintf("g%d-ns%d", g, i%100)).Inc()
			}
		}(g)
	}
	wg.Wait()
	if v.Len() > cap {
		t.Fatalf("Len = %d, want <= %d", v.Len(), cap)
	}
	if total := r.SumCounters("x_total"); total != 8*500 {
		t.Fatalf("total observations = %d, want %d", total, 8*500)
	}
}

func TestHistogramVecOverflowAndPeek(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("x_seconds", []string{"namespace", "model"}, []float64{0.1, 1}, 2)
	v.With2("a", "m1").Observe(0.05)
	v.With2("b", "m2").Observe(0.5)
	v.With2("c", "m3").Observe(2) // over cap -> overflow child
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if h := v.Peek2("a", "m1"); h == nil || h.Count() != 1 {
		t.Fatalf("Peek2(a,m1) = %v", h)
	}
	if h := v.Peek2("c", "m3"); h != nil {
		t.Fatalf("Peek2(c,m3) should be nil (absorbed by overflow)")
	}
	snap := r.Snapshot()
	want := `x_seconds{namespace="_overflow",model="_overflow"}`
	if h, ok := snap.Histograms[want]; !ok || h.Count != 1 {
		t.Fatalf("overflow series %q missing from %v", want, snap.Histograms)
	}
}

func TestRegistryVecSnapshotFolding(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("tenant_http_requests_total", []string{"namespace"}, 8)
	cv.With("ads").Add(3)
	hv := r.HistogramVec("tenant_http_request_seconds", []string{"namespace"}, []float64{0.1, 1}, 8)
	hv.With("ads").Observe(0.05)

	snap := r.Snapshot()
	if got := snap.Counters[`tenant_http_requests_total{namespace="ads"}`]; got != 3 {
		t.Fatalf("folded counter = %d, want 3", got)
	}
	hs, ok := snap.Histograms[`tenant_http_request_seconds{namespace="ads"}`]
	if !ok || hs.Count != 1 {
		t.Fatalf("folded histogram = %+v ok=%v", hs, ok)
	}
	// Same call returns the same vector.
	if r.CounterVec("tenant_http_requests_total", []string{"namespace"}, 8) != cv {
		t.Fatal("CounterVec not idempotent")
	}
	if got := r.SumCounters("tenant_http_requests_total"); got != 3 {
		t.Fatalf("SumCounters = %d, want 3", got)
	}
}

func TestCounterVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", []string{"a", "b"}, 4)
	mustPanic(t, func() { v.With("only-one") })
	v1 := r.CounterVec("y_total", []string{"a"}, 4)
	mustPanic(t, func() { v1.With2("x", "y") })
	v0 := r.CounterVec("z_total", nil, 4)
	mustPanic(t, func() { v0.With("x") })
	mustPanic(t, func() { r.CounterVec("w_total", []string{"a", "b", "c"}, 4) })
}

// TestConflictingRegistrationPanics: one name is one family. Registering
// it again as another kind, with other labels, or with other bounds
// panics at registration, and an identical registration returns the
// same family.
func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total")
	r.CounterVec("v_total", []string{"a"}, 0)
	r.Histogram("h_seconds", LatencyBuckets)
	for name, fn := range map[string]func(){
		"counter as gauge":         func() { r.Gauge("c_total") },
		"counter as histogram":     func() { r.Histogram("c_total", LatencyBuckets) },
		"unlabelled as labelled":   func() { r.CounterVec("c_total", []string{"a"}, 0) },
		"labelled as unlabelled":   func() { r.Counter("v_total") },
		"other label keys":         func() { r.CounterVec("v_total", []string{"b"}, 0) },
		"more labels":              func() { r.CounterVec("v_total", []string{"a", "b"}, 0) },
		"other bounds":             func() { r.Histogram("h_seconds", SizeBuckets) },
		"histogram as counter vec": func() { r.CounterVec("h_seconds", nil, 0) },
		"gauge func over counter":  func() { r.GaugeFunc("c_total", func() float64 { return 1 }) },
	} {
		t.Run(name, func(t *testing.T) { mustPanic(t, fn) })
	}
	if r.CounterVec("v_total", []string{"a"}, 8) != r.CounterVec("v_total", []string{"a"}, 0) {
		t.Fatal("identical re-registration returned another family")
	}
}

func TestHistogramBoundValidation(t *testing.T) {
	// Unsorted bounds must panic at registration instead of being
	// silently reordered.
	mustPanic(t, func() { NewHistogram([]float64{1, 0.5, 2}) })
	// Duplicate bounds leave a permanently empty bucket — also a panic.
	mustPanic(t, func() { NewHistogram([]float64{0.5, 0.5, 2}) })
	mustPanic(t, func() { NewRegistry().Histogram("h", []float64{3, 1}) })
	mustPanic(t, func() {
		NewRegistry().HistogramVec("h", []string{"a"}, []float64{2, 1}, 4)
	})
	// Sorted bounds register fine.
	NewHistogram([]float64{0.5, 1, 2})
	NewHistogram(nil)
}

func TestHistogramCountAtOrBelow(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.09, 0.3, 0.9, 5} {
		h.Observe(v)
	}
	if got := h.CountAtOrBelow(0.1); got != 2 {
		t.Fatalf("<=0.1 = %d, want 2", got)
	}
	if got := h.CountAtOrBelow(0.5); got != 3 {
		t.Fatalf("<=0.5 = %d, want 3", got)
	}
	// A threshold between bounds rounds down to the nearest bound.
	if got := h.CountAtOrBelow(0.7); got != 3 {
		t.Fatalf("<=0.7 = %d, want 3 (rounded down to 0.5)", got)
	}
	if got := h.CountAtOrBelow(1); got != 4 {
		t.Fatalf("<=1 = %d, want 4", got)
	}
	if got := h.CountAtOrBelow(0.01); got != 0 {
		t.Fatalf("<=0.01 = %d, want 0", got)
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
