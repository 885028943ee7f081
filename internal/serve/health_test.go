package serve

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/forecast"
	"gallery/internal/obs"
)

// captureSink records every flushed health request.
type captureSink struct {
	mu   sync.Mutex
	reqs []api.HealthObservationsRequest
}

func (s *captureSink) record(req api.HealthObservationsRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs = append(s.reqs, req)
}

func (s *captureSink) all() []api.HealthObservationsRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]api.HealthObservationsRequest(nil), s.reqs...)
}

func TestHealthFlushShipsWindow(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	sink := &captureSink{}
	g := newTestGateway(t, src, Options{
		Name: "gw-test", HealthSink: sink.record, HealthInterval: -1,
	})

	fctx := forecast.Context{History: []float64{10, 20, 30}}
	for i := 0; i < 5; i++ {
		if _, err := g.Predict("m1", fctx); err != nil {
			t.Fatal(err)
		}
	}
	g.FlushHealth()
	reqs := sink.all()
	if len(reqs) != 1 {
		t.Fatalf("got %d flushes, want 1", len(reqs))
	}
	if reqs[0].Gateway != "gw-test" || len(reqs[0].Observations) != 1 {
		t.Fatalf("request = %+v", reqs[0])
	}
	o := reqs[0].Observations[0]
	if o.ModelID != "m1" || o.InstanceID != "inst-m1-0" {
		t.Fatalf("observation identity = %+v", o)
	}
	if o.Requests != 5 || o.StaleServes != 0 {
		t.Fatalf("counts = %d/%d, want 5/0", o.Requests, o.StaleServes)
	}
	if o.Values.Count != 5 || o.Latency.Count != 5 {
		t.Fatalf("sketch counts = %d/%d, want 5/5", o.Values.Count, o.Latency.Count)
	}
	// Heuristic{K:1} serves the last history value: every observation is 30.
	if o.Values.Mean() != 30 {
		t.Fatalf("values mean = %g, want 30", o.Values.Mean())
	}
	if o.WindowEnd.Before(o.WindowStart) {
		t.Fatalf("window %v..%v inverted", o.WindowStart, o.WindowEnd)
	}

	// Quiet window: nothing to ship.
	g.FlushHealth()
	if got := len(sink.all()); got != 1 {
		t.Fatalf("empty window still flushed: %d reports", got)
	}
}

func TestHealthWindowResetOnHotSwap(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	sink := &captureSink{}
	g := newTestGateway(t, src, Options{HealthSink: sink.record, HealthInterval: -1})

	fctx := forecast.Context{History: []float64{10, 20, 30}}
	for i := 0; i < 3; i++ {
		if _, err := g.Predict("m1", fctx); err != nil {
			t.Fatal(err)
		}
	}
	// Hot swap discards the mixed window...
	src.promote(t, "m1", 1, &forecast.Heuristic{K: 2})
	g.RefreshAll()
	g.FlushHealth()
	if got := len(sink.all()); got != 0 {
		t.Fatalf("pre-swap window leaked through: %d reports", got)
	}
	// ...and post-swap traffic reports against the new instance.
	if _, err := g.Predict("m1", fctx); err != nil {
		t.Fatal(err)
	}
	g.FlushHealth()
	reqs := sink.all()
	if len(reqs) != 1 || len(reqs[0].Observations) != 1 {
		t.Fatalf("reports = %+v", reqs)
	}
	o := reqs[0].Observations[0]
	if o.InstanceID != "inst-m1-1" || o.Requests != 1 {
		t.Fatalf("post-swap observation = %+v", o)
	}
}

func TestPerModelStaleCounterAndRefreshAgeGauge(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	reg := obs.NewRegistry()
	g := newTestGateway(t, src, Options{Obs: reg})

	fctx := forecast.Context{History: []float64{10, 20, 30}}
	if _, err := g.Predict("m1", fctx); err != nil {
		t.Fatal(err)
	}
	staleName := `serve_stale_serves_total{model="m1"}`
	snap := reg.Snapshot()
	if got, ok := snap.Counters[staleName]; !ok || got != 0 {
		t.Fatalf("stale counter = %d (present %v) before any degradation", got, ok)
	}
	ageName := `serve_refresh_age_seconds{model="m1"}`
	age, ok := snap.Gauges[ageName]
	if !ok {
		t.Fatalf("refresh-age gauge missing; gauges = %v", snap.Gauges)
	}
	if age < 0 || age > 60 {
		t.Fatalf("refresh age = %g, want small and non-negative", age)
	}

	// Take galleryd down: refresh fails, serves go stale, the per-model
	// counter moves with them.
	src.fail.Store(true)
	g.RefreshAll()
	for i := 0; i < 3; i++ {
		if _, err := g.Predict("m1", fctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Counters[staleName]; got != 3 {
		t.Fatalf("per-model stale counter = %d, want 3", got)
	}

	// Recovery refreshes the pointer and resets the age.
	src.fail.Store(false)
	time.Sleep(10 * time.Millisecond)
	g.RefreshAll()
	snap = reg.Snapshot()
	if age2 := snap.Gauges[ageName]; age2 < 0 || age2 > 1 {
		t.Fatalf("refresh age after recovery = %g, want ≈0", age2)
	}
}

// modelSeries lists the per-model gateway series a snapshot holds.
func modelSeries(snap obs.Snapshot) []string {
	var out []string
	for k := range snap.Counters {
		if strings.HasPrefix(k, "serve_stale_serves_total{") {
			out = append(out, k)
		}
	}
	for k := range snap.Gauges {
		if strings.HasPrefix(k, "serve_served_version{") || strings.HasPrefix(k, "serve_refresh_age_seconds{") {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestRefreshAgeGaugeRemovedOnEviction: an evicted model's three
// per-model series (stale serves, served version, refresh age) all go,
// and the resident model's stay.
func TestRefreshAgeGaugeRemovedOnEviction(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	src.promote(t, "m2", 0, &forecast.Heuristic{K: 1})
	reg := obs.NewRegistry()
	g := newTestGateway(t, src, Options{Obs: reg, MaxModels: 1})

	fctx := forecast.Context{History: []float64{10, 20, 30}}
	if _, err := g.Predict("m1", fctx); err != nil {
		t.Fatal(err)
	}
	// Loading m2 evicts m1 (MaxModels=1).
	if _, err := g.Predict("m2", fctx); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`serve_refresh_age_seconds{model="m2"}`,
		`serve_served_version{model="m2"}`,
		`serve_stale_serves_total{model="m2"}`,
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := modelSeries(reg.Snapshot())
		if slices.Equal(got, want) {
			break // evicted series dropped, resident series kept
		}
		if time.Now().After(deadline) {
			t.Fatalf("per-model series after eviction = %v, want %v", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUnknownModelsLeaveNoSeries: predictions on model IDs that fail to
// load create no per-model series, however many distinct IDs are sprayed.
func TestUnknownModelsLeaveNoSeries(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	reg := obs.NewRegistry()
	g := newTestGateway(t, src, Options{Obs: reg})
	fctx := forecast.Context{History: []float64{10, 20, 30}}
	for i := range 500 {
		if _, err := g.Predict(fmt.Sprintf("ghost-%d", i), fctx); err == nil {
			t.Fatalf("unknown model ghost-%d predicted", i)
		}
	}
	if got := modelSeries(reg.Snapshot()); len(got) != 0 {
		t.Fatalf("500 unknown models left %d per-model series, e.g. %v", len(got), got[0])
	}
	if _, err := g.Predict("m1", fctx); err != nil {
		t.Fatal(err)
	}
	if got := modelSeries(reg.Snapshot()); len(got) != 3 {
		t.Fatalf("a loaded model has series %v, want its three", got)
	}
}
