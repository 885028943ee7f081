package slo

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"gallery/internal/clock"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

// testConfig ticks every 5 minutes, so the fixed windows are whole ticks:
// fast pair 1/12, slow pair 6/72. Evaluate is driven by hand.
func testConfig(src *countSource) (Config, *obs.Registry) {
	reg := obs.NewRegistry()
	return Config{
		Tick:  5 * time.Minute,
		Clock: clock.NewMock(t0),
		UUIDs: uuid.NewSeeded(9),
		Obs:   reg,
	}, reg
}

// countSource hands out settable cumulative totals.
type countSource struct{ good, bad int64 }

func (s *countSource) Counts(Objective) (int64, int64, bool) { return s.good, s.bad, true }

func mustCreate(t *testing.T, s *Service, o Objective) Objective {
	t.Helper()
	out, err := s.Create(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCreateValidation(t *testing.T) {
	src := &countSource{}
	cfg, _ := testConfig(src)
	s, err := Open(relstore.NewMemory(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Objective{
		{Kind: KindAvailability, Target: 0.99},                                           // no namespace
		{Namespace: "ads", Kind: "availabilty", Target: 0.99},                            // typo kind
		{Namespace: "ads", Kind: KindAvailability, Target: 0},                            // target low
		{Namespace: "ads", Kind: KindAvailability, Target: 1},                            // target high
		{Namespace: "ads", Kind: KindLatency, Target: 0.99},                              // no threshold
		{Namespace: "ads", Kind: KindAvailability, Target: 0.99, LatencyThreshold: 0.25}, // threshold on availability
		{Namespace: "ads", Kind: KindLatency, Target: 0.99, LatencyThreshold: -1},        // negative threshold
	}
	for i, o := range cases {
		if _, err := s.Create(context.Background(), o); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: err = %v, want ErrBadSpec", i, err)
		}
	}
	if err := s.Delete(context.Background(), "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(missing) = %v, want ErrNotFound", err)
	}
}

func TestBurnAndRecovery(t *testing.T) {
	src := &countSource{}
	cfg, reg := testConfig(src)
	s, err := Open(relstore.NewMemory(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.99})
	ctx := context.Background()

	// 80 healthy ticks (past the 72-tick slow-long window): 100 requests
	// each, none bad.
	for i := 0; i < 80; i++ {
		src.good += 100
		s.Evaluate(ctx)
	}
	st := s.Statuses()[0]
	if st.Breached || st.BurnFast != 0 || st.BudgetRemaining != 1 {
		t.Fatalf("healthy state = %+v", st)
	}

	// Full outage: every request bad. Fast-short (1 tick) saturates
	// immediately, but fast-long (12 ticks) mixes in healthy history:
	// after f faulty ticks its bad ratio is 100f/1200, so burn =
	// (f/12)/0.01 ≈ 8.3f. Breach needs burn >= 14.4 -> f = 2. The slow
	// pair is still held back by slow-long (burn (f/72)/0.01 ≈ 2.8 < 6 at
	// f = 2), so the first breach carries fast severity.
	src.bad += 100
	s.Evaluate(ctx)
	if s.Statuses()[0].Breached {
		t.Fatal("breached after 1 faulty tick; fast-long should hold it back")
	}
	src.bad += 100
	s.Evaluate(ctx)
	st = s.Statuses()[0]
	if !st.Breached || st.Severity != "fast" {
		t.Fatalf("after 2 faulty ticks: %+v", st)
	}
	if g := reg.GaugeVec("slo_breached", []string{"slo"}, 0).Peek(o.ID).Value(); g != 1 {
		t.Fatalf("slo_breached gauge = %v, want 1", g)
	}
	if reg.Counter("slo_burn_events_total").Value() != 1 {
		t.Fatal("expected exactly one burn event")
	}

	// Back to healthy traffic: the windows drain and the breach clears.
	for i := 0; i < 60; i++ {
		src.good += 100
		s.Evaluate(ctx)
	}
	st = s.Statuses()[0]
	if st.Breached {
		t.Fatalf("still breached after recovery: %+v", st)
	}
	if reg.Counter("slo_recovered_events_total").Value() != 1 {
		t.Fatal("expected exactly one recovery event")
	}
	if g := reg.GaugeVec("slo_breached", []string{"slo"}, 0).Peek(o.ID).Value(); g != 0 {
		t.Fatalf("slo_breached gauge = %v, want 0", g)
	}
}

// TestLatencyObjectiveOverVectors: a latency regression in one namespace
// breaches that namespace's objective and nothing else. The second
// namespace's objective, over its own clean traffic in the same vectors,
// stays unbreached with its whole budget left.
func TestLatencyObjectiveOverVectors(t *testing.T) {
	reg := obs.NewRegistry()
	lat := reg.HistogramVec("tenant_http_request_seconds", []string{"namespace"}, []float64{0.1, 0.5, 1}, 8)
	src := VecSource{
		Requests: reg.CounterVec("tenant_http_requests_total", []string{"namespace"}, 8),
		Errors:   reg.CounterVec("tenant_http_errors_total", []string{"namespace"}, 8),
		Latency:  lat,
	}
	cfg, _ := testConfig(nil)
	s, err := Open(relstore.NewMemory(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 99% of requests within 100ms, in each namespace.
	ads := mustCreate(t, s, Objective{Namespace: "ads", Kind: KindLatency, Target: 0.99, LatencyThreshold: 0.1})
	maps := mustCreate(t, s, Objective{Namespace: "maps", Kind: KindLatency, Target: 0.99, LatencyThreshold: 0.1})
	status := func(id string) Status {
		for _, st := range s.Statuses() {
			if st.Objective.ID == id {
				return st
			}
		}
		t.Fatalf("no status for %s", id)
		return Status{}
	}
	ctx := context.Background()
	tick := func(adsLatency float64) {
		for j := 0; j < 50; j++ {
			lat.With("ads").Observe(adsLatency)
			lat.With("maps").Observe(0.01)
		}
		s.Evaluate(ctx)
	}
	for i := 0; i < 10; i++ {
		tick(0.01)
	}
	if st := status(ads.ID); st.Breached || st.NoData {
		t.Fatalf("fast traffic: %+v", st)
	}
	// Latency regression in ads only: everything lands above the threshold.
	for i := 0; i < 5; i++ {
		tick(0.9)
	}
	if st := status(ads.ID); !st.Breached {
		t.Fatalf("slow traffic never breached: %+v", st)
	}
	if st := status(maps.ID); st.Breached || st.NoData || st.BudgetRemaining != 1 {
		t.Fatalf("the other namespace's objective was touched by ads' regression: %+v", st)
	}
}

// TestCreateRejectsUnanswerableScope pins the capability probe: an
// objective whose scope no metric source answers is rejected at Create
// instead of sitting at no-data forever. This is what the registry daemon
// does with model-scoped objectives: predict RED vectors live in the
// serving gateway, and no SLO evaluator reads them.
func TestCreateRejectsUnanswerableScope(t *testing.T) {
	reg := obs.NewRegistry()
	nsOnly := VecSource{
		Requests: reg.CounterVec("tenant_http_requests_total", []string{"namespace"}, 8),
		Errors:   reg.CounterVec("tenant_http_errors_total", []string{"namespace"}, 8),
		Latency:  reg.HistogramVec("tenant_http_request_seconds", []string{"namespace"}, []float64{0.1, 1}, 8),
	}
	cfg, _ := testConfig(nil)
	s, err := Open(relstore.NewMemory(), nsOnly, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(context.Background(), Objective{
		Namespace: "ads", ModelID: "ctr", Kind: KindAvailability, Target: 0.99,
	}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("model-scoped create over namespace-only source = %v, want ErrNoSource", err)
	}
	// Namespace scope is answerable and stays creatable.
	mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.99})

	// Nothing is answerable over an empty source.
	s2, err := Open(relstore.NewMemory(), VecSource{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Create(context.Background(), Objective{
		Namespace: "ads", Kind: KindAvailability, Target: 0.99,
	}); !errors.Is(err, ErrNoSource) {
		t.Fatalf("create over empty source = %v, want ErrNoSource", err)
	}
}

// TestNoDataSource covers the restore path the Create probe cannot
// gate: an objective persisted by a process that could answer it, then
// reopened by one that cannot, reports no-data rather than healthy.
func TestNoDataSource(t *testing.T) {
	store := relstore.NewMemory()
	src := &countSource{}
	cfg, _ := testConfig(src)
	s, err := Open(store, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.99})

	cfg2, _ := testConfig(nil)
	s2, err := Open(store, VecSource{}, cfg2) // all-nil vectors
	if err != nil {
		t.Fatal(err)
	}
	s2.Evaluate(context.Background())
	if st := s2.Statuses()[0]; !st.NoData || st.Breached {
		t.Fatalf("want no-data, got %+v", st)
	}
}

// TestPartialWindowBlipDoesNotBreach pins the scaled minSamples floor:
// right after startup every window clamps to the recorded history, so
// without scaling one minSamples-sized blip satisfies both windows of a
// pair at once (fast-short is a single tick) and counterfeits a
// confirmed burn.
func TestPartialWindowBlipDoesNotBreach(t *testing.T) {
	src := &countSource{}
	cfg, _ := testConfig(src)
	s, err := Open(relstore.NewMemory(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.99})
	ctx := context.Background()

	s.Evaluate(ctx) // tick 1: empty baseline
	src.bad += 10   // exactly minSamples failures, then silence
	for i := 0; i < 11; i++ {
		s.Evaluate(ctx)
		if st := s.Statuses()[0]; st.Breached {
			t.Fatalf("startup blip breached at tick %d: %+v", i+2, st)
		}
	}

	// A genuine outage at volume still clears the scaled floor within a
	// few ticks — partial windows evaluate, they just demand the sample
	// mass the full window was calibrated for.
	for i := 0; i < 10; i++ {
		src.bad += 100
		s.Evaluate(ctx)
	}
	if st := s.Statuses()[0]; !st.Breached {
		t.Fatalf("sustained outage never breached: %+v", st)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	store, err := relstore.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := &countSource{}
	cfg, _ := testConfig(src)
	s, err := Open(store, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.999})
	// A model-scoped row, as a process that still answered model scope
	// wrote it.
	model := mustCreate(t, s, Objective{Namespace: "ads", ModelID: "ctr", Kind: KindAvailability, Target: 0.99})
	dropped := mustCreate(t, s, Objective{Namespace: "maps", Kind: KindLatency, Target: 0.95, LatencyThreshold: 0.25})
	if err := s.Delete(context.Background(), dropped.ID); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := relstore.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cfg2, _ := testConfig(src)
	s2, err := Open(store2, src, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	objs := s2.List()
	if len(objs) != 2 {
		t.Fatalf("recovered %d objectives, want 2", len(objs))
	}
	if got := objs[0]; got != kept {
		t.Fatalf("recovered %+v, want %+v", got, kept)
	}
	if got := objs[1]; got != model {
		t.Fatalf("recovered %+v, want %+v", got, model)
	}
	if _, err := s2.Get(dropped.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted objective survived reopen: %v", err)
	}

	// Over the namespace vectors a daemon reads, the model-scoped row
	// reports no-data rather than healthy.
	reg := obs.NewRegistry()
	cfg3, _ := testConfig(nil)
	s3, err := Open(store2, VecSource{
		Requests: reg.CounterVec("tenant_http_requests_total", []string{"namespace"}, 8),
		Errors:   reg.CounterVec("tenant_http_errors_total", []string{"namespace"}, 8),
	}, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	s3.Evaluate(context.Background())
	if st := s3.Statuses(); st[0].NoData || !st[1].NoData || st[1].Breached {
		t.Fatalf("statuses = %+v, want the model-scoped objective alone at no-data", st)
	}
}

func TestDeleteRemovesGauges(t *testing.T) {
	src := &countSource{}
	cfg, reg := testConfig(src)
	s, err := Open(relstore.NewMemory(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.99})
	src.good = 100
	s.Evaluate(context.Background())
	name := `slo_breached{slo="` + o.ID + `"}`
	if _, ok := reg.Snapshot().Gauges[name]; !ok {
		t.Fatal("gauge not published after Evaluate")
	}
	if err := s.Delete(context.Background(), o.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Snapshot().Gauges[name]; ok {
		t.Fatal("gauge survived Delete")
	}
}

func TestMinSamplesSuppressesThinWindows(t *testing.T) {
	src := &countSource{}
	cfg, _ := testConfig(src)
	s, err := Open(relstore.NewMemory(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.99})
	ctx := context.Background()
	// 3 requests per tick, all failing — under minSamples in the one-tick
	// fast-short window, so the fast pair reads no burn and nothing breaches.
	for i := 0; i < 10; i++ {
		src.bad += 3
		s.Evaluate(ctx)
	}
	if st := s.Statuses()[0]; st.Breached || st.BurnFast != 0 {
		t.Fatalf("thin window should not breach: %+v", st)
	}
}
