package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/forecast"
	"gallery/internal/obs"
)

// fakeSource is an in-memory Gallery: per-model production pointers plus
// instance blobs, with call counts and fault injection.
type fakeSource struct {
	mu       sync.Mutex
	versions map[string]api.VersionRecord
	blobs    map[string][]byte

	versionCalls atomic.Int64
	blobCalls    atomic.Int64
	loadDelay    time.Duration
	fail         atomic.Bool
}

var errSourceDown = errors.New("fake gallery unreachable")

func newFakeSource() *fakeSource {
	return &fakeSource{
		versions: make(map[string]api.VersionRecord),
		blobs:    make(map[string][]byte),
	}
}

// promote installs learner as the production instance of modelID, minting
// version "1.<minor>".
func (s *fakeSource) promote(t testing.TB, modelID string, minor int, learner forecast.Model) api.VersionRecord {
	t.Helper()
	blob, err := forecast.Encode(learner)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	instID := fmt.Sprintf("inst-%s-%d", modelID, minor)
	v := api.VersionRecord{
		ID:         fmt.Sprintf("ver-%s-%d", modelID, minor),
		ModelID:    modelID,
		Major:      1,
		Minor:      minor,
		Version:    fmt.Sprintf("1.%d", minor),
		InstanceID: instID,
		Production: true,
	}
	s.mu.Lock()
	s.versions[modelID] = v
	s.blobs[instID] = blob
	s.mu.Unlock()
	return v
}

func (s *fakeSource) ProductionVersion(modelID string) (api.VersionRecord, error) {
	s.versionCalls.Add(1)
	if s.loadDelay > 0 {
		time.Sleep(s.loadDelay)
	}
	if s.fail.Load() {
		return api.VersionRecord{}, errSourceDown
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.versions[modelID]
	if !ok {
		return api.VersionRecord{}, fmt.Errorf("model %s not found", modelID)
	}
	return v, nil
}

func (s *fakeSource) FetchBlob(instanceID string) ([]byte, error) {
	s.blobCalls.Add(1)
	if s.fail.Load() {
		return nil, errSourceDown
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[instanceID]
	if !ok {
		return nil, fmt.Errorf("instance %s not found", instanceID)
	}
	return b, nil
}

// newTestGateway builds a gateway with the refresh loop disabled (tests
// call RefreshAll themselves) and an isolated metric registry.
func newTestGateway(t *testing.T, src Source, opts Options) *Gateway {
	t.Helper()
	opts.RefreshInterval = -1
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	g := New(src, opts)
	t.Cleanup(g.Close)
	return g
}

func TestPredictLoadsAndServes(t *testing.T) {
	src := newFakeSource()
	v := src.promote(t, "m1", 0, &forecast.Heuristic{K: 2})
	g := newTestGateway(t, src, Options{})

	resp, err := g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{1, 3}})
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if resp.Value != 2 { // mean of last 2
		t.Fatalf("value = %v, want 2", resp.Value)
	}
	if resp.VersionID != v.ID || resp.InstanceID != v.InstanceID || resp.Version != "1.0" {
		t.Fatalf("identity = %+v, want version %s instance %s", resp, v.ID, v.InstanceID)
	}
	if resp.Stale {
		t.Fatal("fresh prediction reported stale")
	}

	st := g.Status()
	if len(st) != 1 || st[0].ModelID != "m1" || st[0].Swaps != 0 {
		t.Fatalf("status = %+v", st)
	}
}

func TestUnknownModelFails(t *testing.T) {
	g := newTestGateway(t, newFakeSource(), Options{})
	if _, err := g.PredictCtx(context.Background(), "ghost", forecast.Context{History: []float64{1}}); err == nil {
		t.Fatal("predicting an unknown model succeeded")
	}
	if st := g.Status(); len(st) != 0 {
		t.Fatalf("failed load left a slot behind: %+v", st)
	}
}

func TestSingleflightLoad(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	src.loadDelay = 20 * time.Millisecond
	g := newTestGateway(t, src, Options{})

	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{7}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if got := src.blobCalls.Load(); got != 1 {
		t.Fatalf("cold burst fetched the blob %d times, want 1", got)
	}
}

func TestLoadFailureIsRetriedLater(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	src.fail.Store(true)
	g := newTestGateway(t, src, Options{})

	if _, err := g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{1}}); err == nil {
		t.Fatal("predict with the source down succeeded")
	}
	src.fail.Store(false)
	if _, err := g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{1}}); err != nil {
		t.Fatalf("predict after recovery: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	src := newFakeSource()
	for i := 1; i <= 3; i++ {
		src.promote(t, fmt.Sprintf("m%d", i), 0, &forecast.Heuristic{K: 1})
	}
	g := newTestGateway(t, src, Options{MaxModels: 2})

	for i := 1; i <= 3; i++ {
		if _, err := g.PredictCtx(context.Background(), fmt.Sprintf("m%d", i), forecast.Context{History: []float64{1}}); err != nil {
			t.Fatalf("predict m%d: %v", i, err)
		}
	}
	st := g.Status()
	if len(st) != 2 {
		t.Fatalf("loaded %d models, want 2 after eviction", len(st))
	}
	for _, m := range st {
		if m.ModelID == "m1" {
			t.Fatal("least recently used model m1 survived eviction")
		}
	}

	// Touching m2 before loading a fourth keeps it resident.
	if _, err := g.PredictCtx(context.Background(), "m2", forecast.Context{History: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	blobsBefore := src.blobCalls.Load()
	if _, err := g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if src.blobCalls.Load() != blobsBefore+1 {
		t.Fatal("evicted model was not reloaded")
	}
	for _, m := range g.Status() {
		if m.ModelID == "m3" {
			t.Fatal("m3 should have been evicted (m2 was more recently used)")
		}
	}
}

func TestHotSwapOnPromotion(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1}) // serves last value
	g := newTestGateway(t, src, Options{})

	hist := forecast.Context{History: []float64{10, 20}}
	resp, err := g.PredictCtx(context.Background(), "m1", hist)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value != 20 || resp.Version != "1.0" {
		t.Fatalf("before swap: %+v", resp)
	}

	src.promote(t, "m1", 1, &forecast.Heuristic{K: 2}) // serves mean of last 2
	g.RefreshAll()

	resp, err = g.PredictCtx(context.Background(), "m1", hist)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value != 15 || resp.Version != "1.1" {
		t.Fatalf("after swap: %+v", resp)
	}
	st := g.Status()
	if len(st) != 1 || st[0].Swaps != 1 {
		t.Fatalf("status after swap: %+v", st)
	}

	// Refresh with an unchanged pointer must not swap again.
	g.RefreshAll()
	if st := g.Status(); st[0].Swaps != 1 {
		t.Fatalf("no-op refresh swapped: %+v", st)
	}
}

func TestStaleDegradation(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	reg := obs.NewRegistry()
	g := newTestGateway(t, src, Options{Obs: reg})

	if _, err := g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{5}}); err != nil {
		t.Fatal(err)
	}

	src.fail.Store(true)
	g.RefreshAll()
	resp, err := g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{5}})
	if err != nil {
		t.Fatalf("predict with the source down: %v", err)
	}
	if !resp.Stale || resp.Value != 5 {
		t.Fatalf("degraded response = %+v, want stale last-known-good", resp)
	}
	if st := g.Status(); !st[0].Stale {
		t.Fatalf("status does not report staleness: %+v", st)
	}
	if got := reg.Counter("serve_stale_predictions_total").Value(); got != 1 {
		t.Fatalf("stale counter = %v, want 1", got)
	}

	// Recovery clears the flag.
	src.fail.Store(false)
	g.RefreshAll()
	resp, err = g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stale {
		t.Fatal("response still stale after recovery")
	}
}

// TestConcurrentPredictionsCorrect sends one model many concurrent
// predictions, each over its own history, and checks every caller gets the
// answer for exactly its own.
func TestConcurrentPredictionsCorrect(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	g := newTestGateway(t, src, Options{})

	const n = 64
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := float64(i)
			resp, err := g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{want}})
			if err != nil || resp.Value != want {
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d of %d concurrent predictions wrong", bad.Load(), n)
	}
}

func TestPredictAfterClose(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	g := New(src, Options{RefreshInterval: -1, Obs: obs.NewRegistry()})
	g.Close()
	if _, err := g.PredictCtx(context.Background(), "m1", forecast.Context{History: []float64{1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
