package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"gallery/internal/api"
	"gallery/internal/benchfmt"
	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/serve"
	"gallery/internal/slo"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
)

// SloburnResult is E23: the per-tenant SLO engine end to end. One serving
// gateway carries two tenants; the blob store then fails every fetch so
// the victim tenant's traffic lands on a model the gateway can no longer
// load (persistent 502s), while the quiet tenant keeps hitting a resident
// model. The claims under test:
//
//  1. Detection — the victim namespace's availability objective trips its
//     fast burn pair in a deterministic number of ticks; the model-scoped
//     objective on the failing model trips immediately and its burn event
//     fires a standing rule through the engine.
//  2. Isolation — the quiet tenant's error budget is untouched: dimensional
//     RED metrics keep the blast radius attributable to one namespace.
//  3. Recovery — once the fault clears, the breach clears after the slow
//     window drains, and a recovered event is emitted.
//  4. Cost — recording the per-tenant/per-model RED vectors plus auth adds
//     zero heap allocations per predict request.
type SloburnResult struct {
	HealthyTicks   int
	DetectTicks    int // outage ticks until the namespace objective breached
	RecoveryTicks  int // healthy ticks until the breach cleared
	BreachSeverity string

	RuleFired     int     // "page" action invocations via slo.burn
	QuietBudget   float64 // quiet tenant budget after the outage (want 1.0)
	QuietBreached bool

	AllocOps            int
	OffAllocs, OnAllocs float64
}

// REDExtraAllocs is the hot-path claim: allocations per predict request
// added by auth + dimensional RED recording over the bare handler.
func (r *SloburnResult) REDExtraAllocs() float64 { return r.OnAllocs - r.OffAllocs }

// Format renders E23 as paper-style rows.
func (r *SloburnResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slo burn-rate alerting (tick=1s, fast 5s/60s@14.4, slow 30s/360s@6):\n")
	fmt.Fprintf(&b, "  healthy baseline: %d ticks, no breach\n", r.HealthyTicks)
	fmt.Fprintf(&b, "  outage: victim namespace breached after %d ticks (severity=%s); page rule fired %d time(s)\n",
		r.DetectTicks, r.BreachSeverity, r.RuleFired)
	fmt.Fprintf(&b, "  isolation: quiet tenant budget %.3f, breached=%v\n", r.QuietBudget, r.QuietBreached)
	fmt.Fprintf(&b, "  recovery: breach cleared %d ticks after fault removal\n", r.RecoveryTicks)
	fmt.Fprintf(&b, "  predict hot path (%d ops): plain allocs/op=%.1f; auth+RED allocs/op=%.1f (extra %+.1f)\n",
		r.AllocOps, r.OffAllocs, r.OnAllocs, r.REDExtraAllocs())
	return b.String()
}

// BenchMetrics emits BENCH_sloburn.json. Burn detection is pure counter
// arithmetic over seeded traffic, so the tick counts and isolation
// outcomes gate exactly; the alloc delta gates on benchfmt's
// zero-baseline path like E22.
func (r *SloburnResult) BenchMetrics() []benchfmt.Metric {
	fired := 0.0
	if r.RuleFired > 0 {
		fired = 1
	}
	breached := 0.0
	if r.QuietBreached {
		breached = 1
	}
	return []benchfmt.Metric{
		{Name: "burn_detection_ticks", Unit: "ticks", Value: float64(r.DetectTicks), Better: benchfmt.LowerIsBetter, Tol: 0.01},
		{Name: "burn_recovery_ticks", Unit: "ticks", Value: float64(r.RecoveryTicks), Better: benchfmt.LowerIsBetter, Tol: 0.01},
		{Name: "burn_rule_fired", Value: fired, Better: benchfmt.HigherIsBetter, Tol: 0.01},
		{Name: "quiet_budget_remaining", Value: r.QuietBudget, Better: benchfmt.HigherIsBetter, Tol: 0.01},
		{Name: "quiet_breached", Value: breached, Better: benchfmt.LowerIsBetter, Tol: 0.01},
		{Name: "predict_red_extra_allocs_per_op", Unit: "allocs/op", Value: wholeAllocs(r.REDExtraAllocs()), Better: benchfmt.LowerIsBetter, Tol: 0.5},
	}
}

var errBlobFault = errors.New("sloburn: injected blob fault")

// Sloburn runs E23 with n measured ops per predict-cost arm.
func Sloburn(n int) (*SloburnResult, error) {
	// A custom env: same deterministic stack as NewEnv, but the blob store
	// carries a fault hook so the outage can be switched on mid-run.
	clk := clock.NewMock(epoch)
	var faults atomic.Bool
	blobs := blobstore.NewMemory(blobstore.Options{Hook: func(op blobstore.OpKind, replica int, key string) error {
		if faults.Load() && op == blobstore.OpGet {
			return errBlobFault
		}
		return nil
	}})
	reg, err := core.New(relstore.NewMemory(), blobs, core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(61),
	})
	if err != nil {
		return nil, err
	}
	repo := rules.NewRepo(clk)
	engine := rules.NewEngine(reg, repo, clk)

	// Three served models: the victim tenant's healthy model, the model it
	// fails over to mid-outage (never resident, so every predict needs a
	// blob fetch), and the quiet tenant's model.
	promote := func(name string) (string, error) {
		m, err := reg.RegisterModel(core.ModelSpec{
			BaseVersionID: "sloburn_" + name, Project: "sloburn", Name: name,
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
	quietID, err := promote("quiet-steady")
	if err != nil {
		return nil, err
	}

	// The control plane: one namespace per tenant plus a bench namespace
	// so the measurement arms never touch the victim's counters.
	tm, err := tenant.Open(relstore.NewMemory(), tenant.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(62), Obs: obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	tokens := map[string]string{}
	for _, ns := range []string{"victim", "quiet", "bench"} {
		if err := tm.CreateNamespace(ctx, tenant.Namespace{Name: ns}); err != nil {
			return nil, err
		}
		secret, _, err := tm.MintToken(ctx, ns, ns+"-reader", tenant.RoleReader)
		if err != nil {
			return nil, err
		}
		tokens[ns] = secret
	}

	gwObs := obs.NewRegistry()
	gw := serve.New(regSource{reg}, serve.Options{RefreshInterval: -1, Obs: gwObs})
	defer gw.Close()
	hOn := serve.NewHandler(gw, serve.WithAuthorizer(tm))
	hOff := serve.NewHandler(gw)

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

	res := &SloburnResult{AllocOps: n}

	// --- cost arm (before any SLO traffic; bench namespace only) ---
	// Both arms send byte-identical requests, so the delta is exactly what
	// the auth middleware plus dimensional RED recording add.
	allocOp := func(h *serve.Handler) func() error {
		return func() error {
			if code := predict(h, warmID, tokens["bench"]); code != http.StatusOK {
				return fmt.Errorf("sloburn: predict status %d", code)
			}
			return nil
		}
	}
	if res.OffAllocs, err = allocsPerOp(n, allocOp(hOff)); err != nil {
		return nil, err
	}
	if res.OnAllocs, err = allocsPerOp(n, allocOp(hOn)); err != nil {
		return nil, err
	}

	// --- the standing rule: any model-scoped burn pages the on-call ---
	if _, err := repo.Commit("oncall", "page on slo burn", []*rules.Rule{{
		UUID:        "7a0e16d0-0000-4000-8000-000000000e23",
		Team:        "sloburn",
		Name:        "page-on-burn",
		Kind:        rules.KindAction,
		When:        `slo.event == "burn"`,
		Environment: "production",
		Actions:     []rules.ActionRef{{Action: "page"}},
	}}, nil); err != nil {
		return nil, err
	}
	engine.RegisterAction("page", func(*rules.ActionContext) error {
		res.RuleFired++
		return nil
	})

	// --- the SLO evaluator, reading the gateway's RED vectors ---
	red := httpmw.NewRED(gwObs)
	pred := serve.NewPredictRED(gwObs)
	cfg := slo.Config{
		Tick:      time.Second,
		FastShort: 5 * time.Second, FastLong: 60 * time.Second, FastBurn: 14.4,
		SlowShort: 30 * time.Second, SlowLong: 360 * time.Second, SlowBurn: 6,
		MinSamples: 10,
		Clock:      clk,
		UUIDs:      uuid.NewSeeded(63),
		Obs:        gwObs,
		Events:     engine.Event,
		Instances: func(modelID string) (uuid.UUID, bool) {
			id, err := uuid.Parse(modelID)
			if err != nil {
				return uuid.UUID{}, false
			}
			v, err := reg.ProductionVersion(id)
			if err != nil || v.InstanceID.IsNil() {
				return uuid.UUID{}, false
			}
			return v.InstanceID, true
		},
	}
	svc, err := slo.Open(relstore.NewMemory(), slo.VecSource{
		Requests: red.Requests, Errors: red.Errors, Latency: red.Latency,
		ModelRequests: pred.Requests, ModelErrors: pred.Errors, ModelLatency: pred.Latency,
	}, cfg)
	if err != nil {
		return nil, err
	}
	victimSLO, err := svc.Create(ctx, slo.Objective{Namespace: "victim", Kind: slo.KindAvailability, Target: 0.99})
	if err != nil {
		return nil, err
	}
	quietSLO, err := svc.Create(ctx, slo.Objective{Namespace: "quiet", Kind: slo.KindAvailability, Target: 0.99})
	if err != nil {
		return nil, err
	}
	if _, err := svc.Create(ctx, slo.Objective{
		Namespace: "victim", ModelID: coldID, Kind: slo.KindAvailability, Target: 0.99,
	}); err != nil {
		return nil, err
	}
	statusOf := func(id string) (slo.Status, error) {
		for _, st := range svc.Statuses() {
			if st.Objective.ID == id {
				return st, nil
			}
		}
		return slo.Status{}, fmt.Errorf("sloburn: objective %s missing from statuses", id)
	}

	// tick drives one evaluation interval: reqs predicts per tenant, then
	// an evaluator pass, then the clock advances.
	const reqs = 20
	tick := func(victimModel string, wantVictim int) error {
		for i := 0; i < reqs; i++ {
			if code := predict(hOn, victimModel, tokens["victim"]); code != wantVictim {
				return fmt.Errorf("sloburn: victim predict status %d, want %d", code, wantVictim)
			}
			if code := predict(hOn, quietID, tokens["quiet"]); code != http.StatusOK {
				return fmt.Errorf("sloburn: quiet predict status %d, want 200", code)
			}
		}
		svc.Evaluate(ctx)
		engine.Flush()
		clk.Advance(cfg.Tick)
		return nil
	}

	// --- phase A: healthy baseline ---
	// Long enough to fill the slow-long window: with full history the
	// sharp outage trips the fast pair (as designed) rather than a
	// history-clamped slow window.
	res.HealthyTicks = 400
	for t := 0; t < res.HealthyTicks; t++ {
		if err := tick(warmID, http.StatusOK); err != nil {
			return nil, err
		}
	}
	if st, err := statusOf(victimSLO.ID); err != nil {
		return nil, err
	} else if st.Breached || st.NoData {
		return nil, fmt.Errorf("sloburn: victim objective unhealthy before the outage: %+v", st)
	}

	// --- phase B: outage ---
	// The blob store fails every fetch and the victim's traffic moves to
	// the never-resident model: each predict forces a load that fails, the
	// gateway drops the slot, and the tenant sees persistent 502s.
	faults.Store(true)
	for t := 1; t <= 30; t++ {
		if err := tick(coldID, http.StatusBadGateway); err != nil {
			return nil, err
		}
		st, err := statusOf(victimSLO.ID)
		if err != nil {
			return nil, err
		}
		if st.Breached {
			res.DetectTicks = t
			res.BreachSeverity = st.Severity
			break
		}
	}
	if res.DetectTicks == 0 {
		return nil, fmt.Errorf("sloburn: victim objective never breached during the outage")
	}
	if res.RuleFired == 0 {
		return nil, fmt.Errorf("sloburn: model burn never fired the page rule")
	}
	qst, err := statusOf(quietSLO.ID)
	if err != nil {
		return nil, err
	}
	res.QuietBudget = qst.BudgetRemaining
	res.QuietBreached = qst.Breached

	// --- phase C: recovery ---
	faults.Store(false)
	for t := 1; t <= 120; t++ {
		if err := tick(warmID, http.StatusOK); err != nil {
			return nil, err
		}
		st, err := statusOf(victimSLO.ID)
		if err != nil {
			return nil, err
		}
		if !st.Breached {
			res.RecoveryTicks = t
			break
		}
	}
	if res.RecoveryTicks == 0 {
		return nil, fmt.Errorf("sloburn: victim objective never recovered after the fault cleared")
	}

	// The gateway's registry — RED vectors, slo_* gauges and all — must
	// still render a byte-valid Prometheus exposition.
	var buf bytes.Buffer
	if err := gwObs.WriteProm(&buf); err != nil {
		return nil, err
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("sloburn: gateway exposition invalid after run: %w", err)
	}
	return res, nil
}
