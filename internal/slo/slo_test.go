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

// testConfig keeps windows tiny so burn math is easy to drive by hand:
// tick 1s, fast pair 5s/20s, slow pair 10s/40s. Thresholds are chosen so
// a sharp outage over a healthy baseline trips the fast pair first, like
// the production defaults do.
func testConfig(src *countSource) (Config, *obs.Registry) {
	reg := obs.NewRegistry()
	return Config{
		Tick:       time.Second,
		FastShort:  5 * time.Second,
		FastLong:   20 * time.Second,
		FastBurn:   9.5,
		SlowShort:  10 * time.Second,
		SlowLong:   40 * time.Second,
		SlowBurn:   8,
		MinSamples: 1,
		Clock:      clock.NewMock(t0),
		UUIDs:      uuid.NewSeeded(9),
		Obs:        reg,
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

	// 30 healthy ticks: 100 requests each, none bad.
	for i := 0; i < 30; i++ {
		src.good += 100
		s.Evaluate(ctx)
	}
	st := s.Statuses()[0]
	if st.Breached || st.BurnFast != 0 || st.BudgetRemaining != 1 {
		t.Fatalf("healthy state = %+v", st)
	}

	// Full outage: every request bad. Fast-short (5 ticks) saturates
	// immediately, but fast-long (20 ticks) mixes in healthy history:
	// after f faulty ticks its bad ratio is 100f/2000, so burn =
	// (f/20)/0.01 = 5f. Breach needs burn >= 9.5 -> f = 2. The slow pair
	// is still held back by slow-long (burn 6.25 < 8 at f = 2), so the
	// first breach carries fast severity.
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
	if g := reg.Gauge(obs.Name("slo_breached", "slo", o.ID)).Value(); g != 1 {
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
	if g := reg.Gauge(obs.Name("slo_breached", "slo", o.ID)).Value(); g != 0 {
		t.Fatalf("slo_breached gauge = %v, want 0", g)
	}
}

func TestModelScopedEventDispatch(t *testing.T) {
	src := &countSource{}
	cfg, _ := testConfig(src)
	instID := uuid.NewSeeded(3).New()
	// events are the ones naming an instance — what the rules engine acts
	// on; nsEvents are the namespace-scoped ones it ignores.
	var events, nsEvents []string
	cfg.Events = func(ctx context.Context, ev obs.Event) {
		if ev.Kind != "slo" || ev.Namespace != "ads" {
			t.Errorf("event = %+v", ev)
		}
		if ev.ModelID == "" {
			if !ev.Instance.IsNil() {
				t.Errorf("namespace-scoped event carries instance %s", ev.Instance)
			}
			nsEvents = append(nsEvents, ev.Name)
			return
		}
		if ev.Instance != instID {
			t.Errorf("event instance = %s, want %s", ev.Instance, instID)
		}
		if ev.ModelID != "ctr" || ev.Fields["model"] != "ctr" || ev.Fields["namespace"] != "ads" {
			t.Errorf("event = %+v", ev)
		}
		events = append(events, ev.Name)
	}
	cfg.Instances = func(modelID string) (uuid.UUID, bool) { return instID, modelID == "ctr" }
	s, err := Open(relstore.NewMemory(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, Objective{Namespace: "ads", ModelID: "ctr", Kind: KindAvailability, Target: 0.99})
	// A namespace-scoped objective breaching alongside is published with
	// no instance, so it cannot dispatch into the engine.
	mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.99})

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		src.good += 100
		s.Evaluate(ctx)
	}
	for i := 0; i < 5; i++ {
		src.bad += 100
		s.Evaluate(ctx)
	}
	if len(events) != 1 || events[0] != "burn" {
		t.Fatalf("events = %v, want [burn]", events)
	}
	for i := 0; i < 60; i++ {
		src.good += 100
		s.Evaluate(ctx)
	}
	if len(events) != 2 || events[1] != "recovered" {
		t.Fatalf("events = %v, want [burn recovered]", events)
	}
	if len(nsEvents) != 2 || nsEvents[0] != "burn" || nsEvents[1] != "recovered" {
		t.Fatalf("namespace events = %v, want [burn recovered]", nsEvents)
	}
}

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
	// 99% of requests within 100ms.
	mustCreate(t, s, Objective{Namespace: "ads", Kind: KindLatency, Target: 0.99, LatencyThreshold: 0.1})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		for j := 0; j < 50; j++ {
			lat.With("ads").Observe(0.01)
		}
		s.Evaluate(ctx)
	}
	if st := s.Statuses()[0]; st.Breached || st.NoData {
		t.Fatalf("fast traffic: %+v", st)
	}
	// Latency regression: everything lands above the threshold.
	for i := 0; i < 5; i++ {
		for j := 0; j < 50; j++ {
			lat.With("ads").Observe(0.9)
		}
		s.Evaluate(ctx)
	}
	if st := s.Statuses()[0]; !st.Breached {
		t.Fatalf("slow traffic never breached: %+v", st)
	}
}

// TestCreateRejectsUnanswerableScope pins the capability probe: an
// objective whose scope this process has no metric source for is
// rejected at Create instead of sitting at no-data forever. This is
// what the registry daemon does with model-scoped objectives — its
// predict RED vectors live in the serving gateway.
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

// TestPartialWindowBlipDoesNotBreach pins the scaled MinSamples floor:
// right after startup every window clamps to the recorded history, so
// without scaling one MinSamples-sized blip satisfies both windows of a
// pair at once and counterfeits a confirmed burn.
func TestPartialWindowBlipDoesNotBreach(t *testing.T) {
	src := &countSource{}
	cfg, _ := testConfig(src)
	cfg.MinSamples = 10
	s, err := Open(relstore.NewMemory(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.99})
	ctx := context.Background()

	s.Evaluate(ctx) // tick 1: empty baseline
	src.bad += 10   // exactly MinSamples failures, then silence
	s.Evaluate(ctx)
	for i := 0; i < 10; i++ {
		s.Evaluate(ctx)
		if st := s.Statuses()[0]; st.Breached {
			t.Fatalf("startup blip breached at tick %d: %+v", i+3, st)
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
	if len(objs) != 1 {
		t.Fatalf("recovered %d objectives, want 1", len(objs))
	}
	got := objs[0]
	if got.ID != kept.ID || got.Namespace != "ads" || got.Kind != KindAvailability ||
		got.Target != 0.999 || !got.Created.Equal(kept.Created) {
		t.Fatalf("recovered %+v, want %+v", got, kept)
	}
	if _, err := s2.Get(dropped.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted objective survived reopen: %v", err)
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
	name := obs.Name("slo_breached", "slo", o.ID)
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
	cfg.MinSamples = 50
	s, err := Open(relstore.NewMemory(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, Objective{Namespace: "ads", Kind: KindAvailability, Target: 0.99})
	ctx := context.Background()
	// 3 requests per tick, all failing — but under MinSamples, so no burn.
	for i := 0; i < 10; i++ {
		src.bad += 3
		s.Evaluate(ctx)
	}
	if st := s.Statuses()[0]; st.Breached || st.BurnFast != 0 {
		t.Fatalf("thin window should not breach: %+v", st)
	}
}
