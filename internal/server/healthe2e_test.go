package server

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/health"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/serve"
	"gallery/internal/uuid"
)

// TestContinuousHealthEndToEnd drives the whole model-health pipeline over
// real HTTP, with no manual metric ingestion anywhere: a serving gateway
// records distribution sketches of what the model predicts, flushes them
// to galleryd through the client, the monitor detects the live
// distribution drifting off its reference via PSI, flips the model to
// degraded, and the resulting health.drift event fires a retrain rule in
// the engine.
func TestContinuousHealthEndToEnd(t *testing.T) {
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := rules.NewRepo(clk)
	eng := rules.NewEngine(reg, repo, clk)
	mon := health.New(reg, health.Config{
		ReferenceWindows: 2,
		LiveWindows:      2,
		Interval:         -1, // the test drives Evaluate
		Obs:              obs.NewRegistry(),
		Events:           eng.Event,
	})
	srv := NewWith(reg, repo, eng, Options{Obs: obs.NewRegistry(), Health: mon})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client())

	// The standing policy: when a model's live distribution drifts hard,
	// retrain it.
	if _, err := repo.Commit("oncall", "retrain on drift", []*rules.Rule{{
		UUID:        "5dfc0f60-0000-4000-8000-0000000000e2",
		Team:        "forecasting",
		Name:        "retrain-on-drift",
		Kind:        rules.KindAction,
		When:        `health.event == "drift" && health.psi > 0.25`,
		Environment: "production",
		Actions:     []rules.ActionRef{{Action: "retrain"}},
	}}, nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var fired []*rules.ActionContext
	eng.RegisterAction("retrain", func(ac *rules.ActionContext) error {
		mu.Lock()
		defer mu.Unlock()
		fired = append(fired, ac)
		return nil
	})

	// A model whose prediction is the last history value, promoted to
	// production through the API.
	m, err := c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "bv-demand", Project: "forecasting", Name: "demand", Domain: "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	in, err := c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "demand", City: "sf", Blob: blob})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PromoteInstance(in.ID); err != nil {
		t.Fatal(err)
	}

	// The gateway loads models from galleryd and flushes health windows
	// back into it, both through the same HTTP client.
	gw := serve.New(c, serve.Options{
		Name:            "gw-e2e",
		RefreshInterval: -1,
		HealthSink: func(req api.HealthObservationsRequest) {
			if err := c.ReportHealthObservations(context.Background(), req); err != nil {
				t.Error(err)
			}
		},
		HealthInterval: -1, // flushed explicitly per window
		Obs:            obs.NewRegistry(),
	})
	t.Cleanup(gw.Close)

	serveWindow := func(mean float64, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			// Heuristic{K:1} predicts the last history value, so traffic
			// with a shifted tail shifts the model's output distribution.
			hist := []float64{mean, mean, mean + 20*rng.NormFloat64()}
			if _, err := gw.PredictCtx(context.Background(), m.ID, forecast.Context{History: hist}); err != nil {
				t.Fatal(err)
			}
		}
		gw.FlushHealth()
	}

	// Four windows of reference-shaped traffic: two become the reference,
	// two fill the live ring. Verdict: healthy.
	for s := int64(0); s < 4; s++ {
		serveWindow(200, 100+s)
	}
	mon.Evaluate(context.Background())
	mh, err := c.ModelHealth(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mh.Status != "healthy" {
		t.Fatalf("baseline status = %s (%v) psi=%g", mh.Status, mh.Reasons, mh.PSI)
	}
	if mh.InstanceID != in.ID {
		t.Fatalf("health tracks instance %s, want %s", mh.InstanceID, in.ID)
	}

	// The world changes: live traffic shifts 1.6x. The sketches flushed by
	// the gateway carry the evidence; nothing else is ingested.
	for s := int64(0); s < 2; s++ {
		serveWindow(320, 200+s)
	}
	mon.Evaluate(context.Background())
	eng.Flush()

	mh, err = c.ModelHealth(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mh.Status != "degraded" || mh.PSI < 0.25 {
		t.Fatalf("post-shift status = %s psi=%g (%v), want degraded", mh.Status, mh.PSI, mh.Reasons)
	}
	list, err := c.ListModelHealth()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ModelID != m.ID {
		t.Fatalf("health list = %+v", list)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 {
		t.Fatalf("retrain fired %d times, want 1", len(fired))
	}
	if fired[0].Instance == nil || fired[0].Instance.ID.String() != in.ID {
		t.Fatalf("retrain action context = %+v", fired[0].Instance)
	}
}

// TestModelHealthNotFound pins the 404 path of the health read endpoints.
func TestModelHealthNotFound(t *testing.T) {
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(22),
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := health.New(reg, health.Config{Interval: -1, Obs: obs.NewRegistry()})
	srv := NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry(), Health: mon})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client())

	if _, err := c.ModelHealth(uuid.NewSeeded(5).New().String()); err == nil {
		t.Fatal("untracked model did not 404")
	}
	list, err := c.ListModelHealth()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("empty monitor lists %+v", list)
	}
}
