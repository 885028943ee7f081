package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"gallery/internal/api"
	"gallery/internal/benchfmt"
	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/dal"
	"gallery/internal/forecast"
	"gallery/internal/incident"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/serve"
	"gallery/internal/slo"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

// IncidentCaptureResult is E24: the incident flight recorder end to end.
// A disk-backed registry daemon and an HTTP serving gateway run side by
// side; a blob-store fault turns one tenant's traffic into persistent
// 502s, a fan of availability objectives on that namespace all trip, and
// the burn storm hits the recorder. The claims under test:
//
//  1. Debounce — ≥5 burn events land on one scope but exactly one bundle
//     is persisted; the rest are suppressed and counted.
//  2. Cross-process capture — the bundle carries non-empty metric, trace
//     and log sections from BOTH daemons (the gateway's half pulled over
//     real HTTP via GET /v1/debug/bundle) plus the SLO verdicts.
//  3. Durability — after the daemon "restarts" (stores closed and
//     reopened from the WAL and blob dir), the bundle is still listable
//     and fetchable with its sections intact.
//  4. Cost — the predict hot path measures the same allocs/op with the
//     recorder armed as without it: an idle recorder is free.
type IncidentCaptureResult struct {
	HealthyTicks int
	DetectTicks  int // outage ticks until the 5th burn event

	BurnEvents int   // slo.burn triggers that reached the recorder
	Captures   int64 // bundles persisted (want exactly 1)
	Suppressed int64 // burn triggers eaten by the debounce
	Errors     int64 // failed captures (want 0)

	BundleBytes   int64
	BundlePartial bool

	RestartOK bool // bundle listable + sections intact after reopen

	AllocOps            int
	OffAllocs, OnAllocs float64
}

// RecorderExtraAllocs is the hot-path claim: allocations per predict
// request added by arming the flight recorder.
func (r *IncidentCaptureResult) RecorderExtraAllocs() float64 { return r.OnAllocs - r.OffAllocs }

// Format renders E24 as paper-style rows.
func (r *IncidentCaptureResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "incident flight recorder (tick=1s, debounce=5m, 5 objectives on one namespace):\n")
	fmt.Fprintf(&b, "  burn storm: %d slo.burn events within %d outage ticks\n", r.BurnEvents, r.DetectTicks)
	fmt.Fprintf(&b, "  debounce: %d bundle(s) persisted, %d suppressed, %d errors\n",
		r.Captures, r.Suppressed, r.Errors)
	fmt.Fprintf(&b, "  bundle: %d bytes, partial=%v, both daemons' metrics/traces/logs + SLO verdicts present\n",
		r.BundleBytes, r.BundlePartial)
	fmt.Fprintf(&b, "  durability: listable and intact after store reopen = %v\n", r.RestartOK)
	fmt.Fprintf(&b, "  predict hot path (%d ops): recorder off allocs/op=%.1f; armed allocs/op=%.1f (extra %+.1f)\n",
		r.AllocOps, r.OffAllocs, r.OnAllocs, r.RecorderExtraAllocs())
	return b.String()
}

// BenchMetrics emits BENCH_incidentcapture.json. The debounce and
// durability outcomes are counter arithmetic over seeded traffic and gate
// exactly; the bundle's size depends on ring contents and is only printed.
func (r *IncidentCaptureResult) BenchMetrics() []benchfmt.Metric {
	partial := 0.0
	if r.BundlePartial {
		partial = 1
	}
	restart := 0.0
	if r.RestartOK {
		restart = 1
	}
	return []benchfmt.Metric{
		{Name: "burn_events", Unit: "events", Value: float64(r.BurnEvents), Better: benchfmt.HigherIsBetter, Tol: 0.01},
		{Name: "bundles_persisted", Unit: "bundles", Value: float64(r.Captures), Better: benchfmt.LowerIsBetter, Tol: 0.01},
		{Name: "captures_suppressed", Unit: "events", Value: float64(r.Suppressed), Better: benchfmt.HigherIsBetter, Tol: 0.01},
		{Name: "capture_errors", Value: float64(r.Errors), Better: benchfmt.LowerIsBetter, Tol: 0.01},
		{Name: "bundle_partial", Value: partial, Better: benchfmt.LowerIsBetter, Tol: 0.01},
		{Name: "bundle_survives_restart", Value: restart, Better: benchfmt.HigherIsBetter, Tol: 0.01},
		{Name: "predict_recorder_extra_allocs_per_op", Unit: "allocs/op", Value: wholeAllocs(r.RecorderExtraAllocs()), Better: benchfmt.LowerIsBetter, Tol: 0.5},
	}
}

// IncidentCapture runs E24 with n measured ops per predict-cost arm.
func IncidentCapture(n int) (*IncidentCaptureResult, error) {
	dir, err := os.MkdirTemp("", "gallery-e24-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	clk := clock.NewMock(epoch)
	var faults atomic.Bool
	hook := func(op blobstore.OpKind, replica int, key string) error {
		if faults.Load() && op == blobstore.OpGet {
			return fmt.Errorf("incidentcapture: injected blob fault")
		}
		return nil
	}
	walPath := filepath.Join(dir, "meta.wal")
	blobDir := filepath.Join(dir, "blobs")
	meta, err := relstore.Open(walPath, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer meta.Close()
	blobs, err := blobstore.NewDisk(blobDir, blobstore.Options{Hook: hook})
	if err != nil {
		return nil, err
	}
	reg, err := core.New(meta, blobs, core.Options{Clock: clk, UUIDs: uuid.NewSeeded(71)})
	if err != nil {
		return nil, err
	}

	// Two served models in the victim tenant: the warm one stays resident,
	// the cold one is never loaded before the fault hits, so every predict
	// against it forces a blob fetch that fails — persistent 502s.
	promote := func(name string) (string, error) {
		m, err := reg.RegisterModel(core.ModelSpec{
			BaseVersionID: "e24_" + name, Project: "incidentcapture", Name: name,
		})
		if err != nil {
			return "", err
		}
		blob, err := forecast.Encode(&forecast.Heuristic{K: 2})
		if err != nil {
			return "", err
		}
		in, err := reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, Name: name, City: "sf"}, blob)
		if err != nil {
			return "", err
		}
		if err := reg.PromoteInstance(in.ID); err != nil {
			return "", err
		}
		return m.ID.String(), nil
	}
	warmID, err := promote("victim-warm")
	if err != nil {
		return nil, err
	}
	coldID, err := promote("victim-cold")
	if err != nil {
		return nil, err
	}

	tm, err := tenant.Open(relstore.NewMemory(), tenant.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(72), Obs: obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	tokens := map[string]string{}
	for _, ns := range []string{"victim", "bench"} {
		if err := tm.CreateNamespace(ctx, tenant.Namespace{Name: ns}); err != nil {
			return nil, err
		}
		secret, _, err := tm.MintToken(ctx, ns, ns+"-reader", tenant.RoleReader)
		if err != nil {
			return nil, err
		}
		tokens[ns] = secret
	}

	// The gateway process: its own registry, trace ring, and log ring —
	// exactly the state GET /v1/debug/bundle freezes. The observability
	// handler is mounted on a real listener so the recorder's pull is a
	// genuine cross-process HTTP round trip.
	gwObs := obs.NewRegistry()
	gwRing := obslog.NewRing(256)
	gwTracer := trace.New(trace.Options{Service: "galleryserve", Sampler: trace.Always(), Capacity: 128})
	gw := serve.New(regSource{reg}, serve.Options{RefreshInterval: -1, Obs: gwObs})
	defer gw.Close()
	hBench := serve.NewHandler(gw, serve.WithAuthorizer(tm))
	hObs := serve.NewHandler(gw,
		serve.WithAuthorizer(tm),
		serve.WithTracer(gwTracer),
		serve.WithLogRing(gwRing),
		serve.WithAccessLog(slog.New(obslog.NewHandler(gwRing, slog.LevelInfo, nil))),
	)
	gwTS := httptest.NewServer(hObs)
	defer gwTS.Close()

	payload, err := json.Marshal(api.PredictRequest{History: []float64{10, 12}})
	if err != nil {
		return nil, err
	}
	predict := func(h *serve.Handler, modelID, token string) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict/"+modelID, bytes.NewReader(payload))
		req.Header.Set("Authorization", "Bearer "+token)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	res := &IncidentCaptureResult{AllocOps: n}

	// --- cost arm, recorder off (bench namespace only) ---
	allocOp := func() error {
		if code := predict(hBench, warmID, tokens["bench"]); code != http.StatusOK {
			return fmt.Errorf("incidentcapture: predict status %d", code)
		}
		return nil
	}
	if res.OffAllocs, err = allocsPerOp(n, allocOp); err != nil {
		return nil, err
	}

	// --- the registry daemon's observability state + the recorder ---
	dObs := obs.NewRegistry()
	dRing := obslog.NewRing(256)
	dTracer := trace.New(trace.Options{Service: "galleryd", Sampler: trace.Always(), Capacity: 128})
	dLog := slog.New(obslog.NewHandler(dRing, slog.LevelInfo, nil))
	rec, err := incident.Open(reg.DAL(), incident.Config{
		Obs:          dObs,
		Tracer:       dTracer,
		Logs:         dRing,
		Audit:        reg.Audit(),
		Gateway:      gwTS.URL,
		GatewayToken: tokens["victim"],
		Keep:         8,
		Clock:        clk,
		UUIDs:        uuid.NewSeeded(73),
	})
	if err != nil {
		return nil, err
	}

	// Five availability objectives on the victim namespace: one outage,
	// five independent burn transitions, one debounce scope.
	red := httpmw.NewRED(gwObs)
	pred := serve.NewPredictRED(gwObs)
	svc, err := slo.Open(relstore.NewMemory(), slo.VecSource{
		Requests: red.Requests, Errors: red.Errors, Latency: red.Latency,
		ModelRequests: pred.Requests, ModelErrors: pred.Errors, ModelLatency: pred.Latency,
	}, slo.Config{
		Tick:      time.Second,
		FastShort: 5 * time.Second, FastLong: 60 * time.Second, FastBurn: 2,
		SlowShort: 30 * time.Second, SlowLong: 360 * time.Second, SlowBurn: 1.5,
		MinSamples: 10,
		Clock:      clk,
		UUIDs:      uuid.NewSeeded(74),
		Obs:        gwObs,
		Events:     rec.Event,
	})
	if err != nil {
		return nil, err
	}
	rec.BindSLO(svc)
	for _, target := range []float64{0.9, 0.95, 0.99, 0.995, 0.999} {
		if _, err := svc.Create(ctx, slo.Objective{
			Namespace: "victim", Kind: slo.KindAvailability, Target: target,
		}); err != nil {
			return nil, err
		}
	}

	cCaptures := dObs.Counter("incident_captures_total")
	cSuppressed := dObs.Counter("incident_suppressed_total")
	cErrors := dObs.Counter("incident_errors_total")

	// tick drives one evaluation interval: victim traffic, then an
	// evaluator pass traced and logged like the real daemon's.
	const reqs = 20
	tick := func(victimModel string, want int) error {
		for i := 0; i < reqs; i++ {
			if code := predict(hObs, victimModel, tokens["victim"]); code != want {
				return fmt.Errorf("incidentcapture: victim predict status %d, want %d", code, want)
			}
		}
		tctx, span := dTracer.StartRoot(ctx, "slo.evaluate", "")
		svc.Evaluate(tctx)
		span.End()
		dLog.Info("slo evaluated", "tick", clk.Now().Unix())
		clk.Advance(time.Second)
		return nil
	}

	// --- phase A: healthy baseline ---
	res.HealthyTicks = 90
	for t := 0; t < res.HealthyTicks; t++ {
		if err := tick(warmID, http.StatusOK); err != nil {
			return nil, err
		}
	}
	if got := cCaptures.Value() + cSuppressed.Value(); got != 0 {
		return nil, fmt.Errorf("incidentcapture: %d burn trigger(s) during the healthy baseline", got)
	}

	// --- phase B: outage → burn storm → one capture ---
	faults.Store(true)
	for t := 1; t <= 40; t++ {
		if err := tick(coldID, http.StatusBadGateway); err != nil {
			return nil, err
		}
		if cCaptures.Value()+cSuppressed.Value() >= 5 {
			res.DetectTicks = t
			break
		}
	}
	faults.Store(false)
	res.Captures = cCaptures.Value()
	res.Suppressed = cSuppressed.Value()
	res.Errors = cErrors.Value()
	res.BurnEvents = int(res.Captures + res.Suppressed)
	if res.DetectTicks == 0 {
		return nil, fmt.Errorf("incidentcapture: only %d burn events in 40 outage ticks, want >= 5", res.BurnEvents)
	}
	if res.Captures != 1 {
		return nil, fmt.Errorf("incidentcapture: %d bundles persisted for one scope, want exactly 1 (debounce)", res.Captures)
	}
	if res.Errors != 0 {
		return nil, fmt.Errorf("incidentcapture: %d capture error(s)", res.Errors)
	}

	// --- the bundle: both daemons' sections, over-the-wire gateway half ---
	incs, err := rec.List("victim")
	if err != nil {
		return nil, err
	}
	if len(incs) != 1 {
		return nil, fmt.Errorf("incidentcapture: List(victim) = %d incidents, want 1", len(incs))
	}
	checkBundle := func(inc api.Incident, b api.IncidentBundle) error {
		if inc.Partial || b.GatewayError != "" {
			return fmt.Errorf("incidentcapture: bundle partial (%q) with a live gateway", b.GatewayError)
		}
		if len(b.Registry.Metrics) == 0 || b.Registry.MetricsProm == "" {
			return fmt.Errorf("incidentcapture: registry metrics section empty")
		}
		if !bytes.Contains(b.Registry.Traces, []byte("slo.evaluate")) {
			return fmt.Errorf("incidentcapture: registry trace tail missing the evaluator span")
		}
		if len(b.Registry.Logs) == 0 {
			return fmt.Errorf("incidentcapture: registry log tail empty")
		}
		if b.Gateway == nil {
			return fmt.Errorf("incidentcapture: gateway snapshot missing")
		}
		if len(b.Gateway.Metrics) == 0 || !strings.Contains(b.Gateway.MetricsProm, "serve_predictions_total") {
			return fmt.Errorf("incidentcapture: gateway metrics section empty")
		}
		if !bytes.Contains(b.Gateway.Traces, []byte("POST /v1/predict")) {
			return fmt.Errorf("incidentcapture: gateway trace tail missing predict spans")
		}
		if len(b.Gateway.Logs) == 0 {
			return fmt.Errorf("incidentcapture: gateway log tail empty")
		}
		if b.Gateway.Build.GoVersion == "" || b.Registry.Build.GoVersion == "" {
			return fmt.Errorf("incidentcapture: build info not stamped")
		}
		if len(b.SLO) == 0 {
			return fmt.Errorf("incidentcapture: SLO verdict section empty")
		}
		return nil
	}
	inc, bundle, err := rec.Get(ctx, incs[0].ID)
	if err != nil {
		return nil, err
	}
	if err := checkBundle(inc, bundle); err != nil {
		return nil, err
	}
	res.BundleBytes = inc.Size
	res.BundlePartial = inc.Partial

	// --- cost arm, recorder armed and steady (one capture behind it) ---
	if res.OnAllocs, err = allocsPerOp(n, allocOp); err != nil {
		return nil, err
	}

	// --- phase C: "restart" — reopen the stores, replay the WAL ---
	if err := meta.Close(); err != nil {
		return nil, err
	}
	meta2, err := relstore.Open(walPath, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer meta2.Close()
	blobs2, err := blobstore.NewDisk(blobDir, blobstore.Options{})
	if err != nil {
		return nil, err
	}
	rec2, err := incident.Open(dal.New(meta2, blobs2, dal.Options{Obs: obs.NewRegistry()}), incident.Config{
		Obs: obs.NewRegistry(), Clock: clk, UUIDs: uuid.NewSeeded(75),
	})
	if err != nil {
		return nil, err
	}
	incs2, err := rec2.List("victim")
	if err != nil {
		return nil, err
	}
	if len(incs2) != 1 || incs2[0].ID != incs[0].ID {
		return nil, fmt.Errorf("incidentcapture: post-restart List(victim) = %+v, want the captured bundle", incs2)
	}
	inc2, bundle2, err := rec2.Get(ctx, incs[0].ID)
	if err != nil {
		return nil, err
	}
	if err := checkBundle(inc2, bundle2); err != nil {
		return nil, fmt.Errorf("post-restart %w", err)
	}
	res.RestartOK = true
	return res, nil
}
