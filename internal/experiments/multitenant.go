package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"gallery/internal/api"
	"gallery/internal/benchfmt"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/serve"
	"gallery/internal/server"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
)

// MultiTenantResult is E22: what the multi-tenant control plane costs on
// the hot paths, and whether it actually isolates tenants. Three probes:
//
//  1. Predict arm — the same serving handler answers the same prediction
//     storm with auth off and on (identical requests, the off arm simply
//     ignores the bearer header). The claim under test: authentication
//     adds zero heap allocations per request.
//  2. Registry arm — GET /v1/models/{id} against galleryd, auth off vs
//     on, for the metadata-path allocation cost.
//  3. Noisy neighbor — two tenants on one frozen-clock gateway: "noisy"
//     rate-limited at burst 10, "quiet" unlimited. The noisy tenant's
//     flood must clip at exactly its burst while the quiet tenant loses
//     nothing.
type MultiTenantResult struct {
	PredictOps int

	OffAllocs, OnAllocs float64

	RegOps                    int
	RegOffAllocs, RegOnAllocs float64

	NoisySent, NoisyAllowed, NoisyRejected int
	QuietSent, QuietOK                     int
}

// PredictExtraAllocs is the headline number: heap allocations per predict
// request that exist only because auth is on.
func (r *MultiTenantResult) PredictExtraAllocs() float64 { return r.OnAllocs - r.OffAllocs }

// QuietOKRatio is the quiet tenant's survival rate under the noisy
// tenant's flood — 1.0 means full isolation.
func (r *MultiTenantResult) QuietOKRatio() float64 {
	if r.QuietSent == 0 {
		return 0
	}
	return float64(r.QuietOK) / float64(r.QuietSent)
}

// Format renders E22 as paper-style rows.
func (r *MultiTenantResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "predict hot path (%d ops): auth=off allocs/op=%.1f; auth=on allocs/op=%.1f (extra %+.1f, target 0)\n",
		r.PredictOps, r.OffAllocs, r.OnAllocs, r.PredictExtraAllocs())
	fmt.Fprintf(&b, "registry GET /v1/models/{id} (%d ops): auth=off allocs/op=%.1f; auth=on allocs/op=%.1f\n",
		r.RegOps, r.RegOffAllocs, r.RegOnAllocs)
	b.WriteString("  auth=off pays for withActor's r.WithContext + context.WithValue (the anonymous actor);\n" +
		"  auth=on carries the token identity instead, so the arms differ by more than auth and only auth=on gates\n")
	fmt.Fprintf(&b, "noisy neighbor (frozen clock, noisy burst=10): noisy %d/%d admitted, %d rejected 429; quiet %d/%d ok (isolation %.2f)\n",
		r.NoisyAllowed, r.NoisySent, r.NoisyRejected, r.QuietOK, r.QuietSent, r.QuietOKRatio())
	return b.String()
}

// BenchMetrics emits BENCH_multitenant.json: allocation counts and the
// rate-limiter's exact admit/reject split. The registry arm gates its
// authed count alone: auth=off runs withActor, which auth=on skips, so
// their difference is not the cost of auth (and reads negative).
func (r *MultiTenantResult) BenchMetrics() []benchfmt.Metric {
	return []benchfmt.Metric{
		// The tentpole claim: zero extra allocs on the authed predict path.
		{Name: "predict_auth_extra_allocs_per_op", Unit: "allocs/op", Value: wholeAllocs(r.PredictExtraAllocs()), Better: benchfmt.LowerIsBetter, Tol: 0.5},
		// Absolute counts. Ten runs spread 0.03 allocs/op around 36 and 39;
		// tol 0.05 (about 1.8 allocs) passes +1 alloc/op and fails +2.
		{Name: "predict_auth_on_allocs_per_op", Unit: "allocs/op", Value: r.OnAllocs, Better: benchfmt.LowerIsBetter, Tol: 0.05},
		{Name: "registry_auth_on_allocs_per_op", Unit: "allocs/op", Value: r.RegOnAllocs, Better: benchfmt.LowerIsBetter, Tol: 0.05},
		{Name: "noisy_allowed", Unit: "reqs", Value: float64(r.NoisyAllowed), Better: benchfmt.LowerIsBetter, Tol: 0.01},
		{Name: "noisy_rejected", Unit: "reqs", Value: float64(r.NoisyRejected), Better: benchfmt.HigherIsBetter, Tol: 0.01},
		{Name: "quiet_ok_ratio", Value: r.QuietOKRatio(), Better: benchfmt.HigherIsBetter, Tol: 0.01},
	}
}

// MultiTenant runs E22 with n measured ops per hot-path arm.
func MultiTenant(n int) (*MultiTenantResult, error) {
	env, err := NewEnv(47)
	if err != nil {
		return nil, err
	}
	res := &MultiTenantResult{PredictOps: n, RegOps: n}

	// One trained model, promoted, as the serving workload.
	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "tenant_bench", Project: "bench", Name: "bench/demand", Domain: "UberX",
	})
	if err != nil {
		return nil, err
	}
	series := forecast.Generate(forecast.CityConfig{
		Name: "sf", Base: 100, GrowthPerWeek: 3, DailyAmp: 20, WeeklyAmp: 10, NoiseStd: 2, Seed: 47,
	}, epoch, time.Hour, 24*14)
	mdl := &forecast.LinearAR{Lags: 24}
	if err := mdl.Train(series); err != nil {
		return nil, err
	}
	blob, err := forecast.Encode(mdl)
	if err != nil {
		return nil, err
	}
	inst, err := env.Reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, Name: "champion", City: "sf"}, blob)
	if err != nil {
		return nil, err
	}
	if err := env.Reg.PromoteInstance(inst.ID); err != nil {
		return nil, err
	}

	// The gateway-side control plane: in-memory store, deterministic ids,
	// frozen mock clock (rate buckets never refill, so admit/reject counts
	// are exact).
	clk := clock.NewMock(epoch)
	tm, err := tenant.Open(relstore.NewMemory(), tenant.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(48), Obs: obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	if err := tm.CreateNamespace(context.Background(), tenant.Namespace{Name: "bench"}); err != nil {
		return nil, err
	}
	if err := tm.CreateNamespace(context.Background(), tenant.Namespace{Name: "noisy", RatePerSec: 1, Burst: 10}); err != nil {
		return nil, err
	}
	if err := tm.CreateNamespace(context.Background(), tenant.Namespace{Name: "quiet"}); err != nil {
		return nil, err
	}
	benchSecret, _, err := tm.MintToken(context.Background(), "bench", "bench-reader", tenant.RoleReader)
	if err != nil {
		return nil, err
	}
	noisySecret, _, err := tm.MintToken(context.Background(), "noisy", "noisy-reader", tenant.RoleReader)
	if err != nil {
		return nil, err
	}
	quietSecret, _, err := tm.MintToken(context.Background(), "quiet", "quiet-reader", tenant.RoleReader)
	if err != nil {
		return nil, err
	}

	// --- predict arm ---
	gw := serve.New(regSource{env.Reg}, serve.Options{RefreshInterval: -1, Obs: obs.NewRegistry()})
	defer gw.Close()
	hOff := serve.NewHandler(gw)
	hOn := serve.NewHandler(gw, serve.WithAuthorizer(tm))

	hist := series.Values()[len(series)-48:]
	payload, err := json.Marshal(api.PredictRequest{History: hist})
	if err != nil {
		return nil, err
	}
	predictPath := "/v1/predict/" + m.ID.String()
	// Both arms build byte-identical requests — bearer header included —
	// so the measured delta is exactly what the auth middleware adds.
	predictOp := func(h *serve.Handler) error {
		req := httptest.NewRequest(http.MethodPost, predictPath, bytes.NewReader(payload))
		req.Header.Set("Authorization", "Bearer "+benchSecret)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("experiments: predict status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	if res.OffAllocs, err = allocsPerOp(n, func() error { return predictOp(hOff) }); err != nil {
		return nil, err
	}
	if res.OnAllocs, err = allocsPerOp(n, func() error { return predictOp(hOn) }); err != nil {
		return nil, err
	}

	// --- registry arm ---
	srvOff := server.NewWith(env.Reg, env.Repo, env.Engine, server.Options{Obs: obs.NewRegistry()})
	defer srvOff.Close()
	srvOn := server.NewWith(env.Reg, env.Repo, env.Engine, server.Options{Obs: obs.NewRegistry(), Tenants: tm})
	defer srvOn.Close()
	modelPath := "/v1/models/" + m.ID.String()
	registryOp := func(h http.Handler) error {
		req := httptest.NewRequest(http.MethodGet, modelPath, nil)
		req.Header.Set("Authorization", "Bearer "+benchSecret)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("experiments: get model status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	if res.RegOffAllocs, err = allocsPerOp(n, func() error { return registryOp(srvOff) }); err != nil {
		return nil, err
	}
	if res.RegOnAllocs, err = allocsPerOp(n, func() error { return registryOp(srvOn) }); err != nil {
		return nil, err
	}

	// --- noisy neighbor ---
	// The clock is frozen, so the noisy bucket starts full (burst 10) and
	// never refills: of 50 requests exactly 10 must pass. The quiet tenant
	// has no limit and must feel nothing.
	flood := func(secret string, count int) (ok, limited int, err error) {
		for i := 0; i < count; i++ {
			req := httptest.NewRequest(http.MethodGet, "/v1/serving", nil)
			req.Header.Set("Authorization", "Bearer "+secret)
			rec := httptest.NewRecorder()
			hOn.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				if rec.Header().Get("Retry-After") == "" {
					return 0, 0, fmt.Errorf("experiments: 429 without Retry-After")
				}
				limited++
			default:
				return 0, 0, fmt.Errorf("experiments: flood status %d: %s", rec.Code, rec.Body.String())
			}
		}
		return ok, limited, nil
	}
	res.NoisySent = 50
	if res.NoisyAllowed, res.NoisyRejected, err = flood(noisySecret, res.NoisySent); err != nil {
		return nil, err
	}
	res.QuietSent = 50
	quietLimited := 0
	if res.QuietOK, quietLimited, err = flood(quietSecret, res.QuietSent); err != nil {
		return nil, err
	}
	if quietLimited != 0 {
		return nil, fmt.Errorf("experiments: quiet tenant rate-limited %d times by the noisy tenant's flood", quietLimited)
	}
	return res, nil
}
