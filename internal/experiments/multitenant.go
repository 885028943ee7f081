package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/daemon"
	"gallery/internal/forecast"
	"gallery/internal/tenant"
)

// MultiTenantResult is E22: what the multi-tenant control plane costs on
// the hot paths of the shipped daemons, and whether it actually isolates
// tenants. Three probes, each through an assembled daemon's handler:
//
//  1. Predict arm — galleryserve without and with -auth answers the same
//     prediction storm (identical requests, the plain gateway simply
//     ignores the bearer header). The claim under test: authentication
//     adds zero heap allocations per request. The authed gateway then
//     answers the same request as the Go client sends it, a binary
//     api.PredictMediaType body.
//  2. Registry arm — GET /v1/models/{id} against galleryd without and
//     with -auth, for the metadata-path allocation cost.
//  3. Noisy neighbor — two tenants on the authed gateway: "noisy" at
//     burst 10 with a bucket that refills once every 1,000 s, "quiet"
//     unlimited. The noisy tenant's flood must clip at exactly its burst
//     while the quiet tenant loses nothing.
type MultiTenantResult struct {
	PredictOps int

	OffAllocs, OnAllocs float64
	// OnBinaryAllocs is the authed arm with the binary body.
	OnBinaryAllocs float64

	RegOps                    int
	RegOffAllocs, RegOnAllocs float64

	NoisySent, NoisyAllowed, NoisyRejected int
	NoisyRetryAfter                        string
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
	fmt.Fprintf(&b, "galleryserve POST /v1/predict/{model} (%d ops): auth=off allocs/op=%.1f; auth=on allocs/op=%.1f (extra %+.1f, target 0); auth=on binary body allocs/op=%.1f\n",
		r.PredictOps, r.OffAllocs, r.OnAllocs, r.PredictExtraAllocs(), r.OnBinaryAllocs)
	fmt.Fprintf(&b, "galleryd GET /v1/models/{id} (%d ops): auth=off allocs/op=%.1f; auth=on allocs/op=%.1f\n",
		r.RegOps, r.RegOffAllocs, r.RegOnAllocs)
	b.WriteString("  auth=off pays for withActor's r.WithContext + context.WithValue (the anonymous actor);\n" +
		"  auth=on carries the token identity instead, so the arms differ by more than auth and only auth=on gates\n")
	fmt.Fprintf(&b, "noisy neighbor (noisy burst=10, refill 1/1000s): noisy %d/%d admitted, %d rejected 429 (Retry-After %s); quiet %d/%d ok (isolation %.2f)\n",
		r.NoisyAllowed, r.NoisySent, r.NoisyRejected, r.NoisyRetryAfter, r.QuietOK, r.QuietSent, r.QuietOKRatio())
	return b.String()
}

// Token secrets of E22's -token-file.
const (
	mtAdmin = "gal_e22admin000000000000000000000000000000"
	mtBench = "gal_e22bench000000000000000000000000000000"
	mtNoisy = "gal_e22noisy000000000000000000000000000000"
	mtQuiet = "gal_e22quiet000000000000000000000000000000"
)

// Background loops off, as the daemons' own tests run them: the allocation
// count is process-wide, so only the measured requests may allocate. The
// sampler and the log level stay at their defaults.
var (
	mtGallerydArgs     = []string{"-mem", "-health-interval", "-1s", "-slo-interval", "-1s", "-dump-metrics=false"}
	mtGalleryserveArgs = []string{"-refresh", "-1s", "-health-flush", "-1s"}
)

// MultiTenant runs E22 with n measured ops per hot-path arm.
func MultiTenant(n int) (*MultiTenantResult, error) {
	dir, err := os.MkdirTemp("", "gallery-e22-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tokens := filepath.Join(dir, "tokens.json")
	seed, err := json.Marshal(tenant.Seed{
		Namespaces: []tenant.SeedNamespace{{Name: "bench"}, {Name: "noisy", RatePerSec: 0.001, Burst: 10}, {Name: "quiet"}},
		Tokens: []tenant.SeedToken{
			{Secret: mtAdmin, Name: "admin", Namespace: tenant.DefaultNamespace, Role: "operator"},
			{Secret: mtBench, Name: "bench-reader", Namespace: "bench", Role: "reader"},
			{Secret: mtNoisy, Name: "noisy-reader", Namespace: "noisy", Role: "reader"},
			{Secret: mtQuiet, Name: "quiet-reader", Namespace: "quiet", Role: "reader"},
		},
	})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(tokens, seed, 0o600); err != nil {
		return nil, err
	}
	auth := []string{"-auth", "-token-file", tokens}

	// Each daemon is closed after everything booted later: gateways before
	// the galleryd they ship to. Only the galleryds listen; the measured
	// requests go straight into the handlers.
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()
	gallerydOn := func(extra []string) (*daemon.Galleryd, *httptest.Server, error) {
		var cfg daemon.GallerydConfig
		if err := parseFlags(cfg.Flags, mtGallerydArgs, extra); err != nil {
			return nil, nil, err
		}
		gd, err := daemon.NewGalleryd(cfg)
		if err != nil {
			return nil, nil, err
		}
		ts := httptest.NewServer(gd.Handler())
		stops = append(stops, func() { gd.Close() }, ts.Close)
		return gd, ts, nil
	}
	gdOff, gdOffTS, err := gallerydOn(nil)
	if err != nil {
		return nil, err
	}
	gdOn, gdOnTS, err := gallerydOn(auth)
	if err != nil {
		return nil, err
	}
	galleryserveOn := func(extra []string) (*daemon.Galleryserve, error) {
		var cfg daemon.GalleryserveConfig
		if err := parseFlags(cfg.Flags, mtGalleryserveArgs, []string{"-gallery", gdOffTS.URL}, extra); err != nil {
			return nil, err
		}
		gw, err := daemon.NewGalleryserve(cfg)
		if err != nil {
			return nil, err
		}
		stops = append(stops, func() { gw.Close() })
		return gw, nil
	}
	gwOff, err := galleryserveOn(nil)
	if err != nil {
		return nil, err
	}
	gwOn, err := galleryserveOn(auth)
	if err != nil {
		return nil, err
	}

	// One trained model, uploaded (and so in production) on the gateways'
	// galleryd, as the serving workload; the authed galleryd holds a model for the registry arm.
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
	spec := api.RegisterModelRequest{BaseVersionID: "tenant_bench", Project: "bench", Name: "bench/demand", Domain: "UberX"}
	m, err := client.New(gdOffTS.URL, nil).RegisterModel(spec)
	if err != nil {
		return nil, err
	}
	if _, err := client.New(gdOffTS.URL, nil).UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "champion", City: "sf", Blob: blob}); err != nil {
		return nil, err
	}
	mOn, err := client.NewWith(gdOnTS.URL, client.Options{Token: mtAdmin}).RegisterModel(spec)
	if err != nil {
		return nil, err
	}

	// Every request carries the bench reader's bearer token, so the arms
	// differ in the daemon's flags only.
	// contentType is set from one shared slice, so that naming a body's
	// type costs the measured op no allocation of the harness's own.
	call := func(h http.Handler, method, path string, contentType []string, body []byte, secret string) *httptest.ResponseRecorder {
		var r io.Reader
		if body != nil {
			r = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, r)
		req.Header.Set("Authorization", "Bearer "+secret)
		if contentType != nil {
			req.Header["Content-Type"] = contentType
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	measure := func(h http.Handler, method, path string, contentType []string, body []byte) (float64, error) {
		return allocsPerOp(n, func() error {
			if rec := call(h, method, path, contentType, body, mtBench); rec.Code != http.StatusOK {
				return fmt.Errorf("experiments: %s %s status %d: %s", method, path, rec.Code, rec.Body.String())
			}
			return nil
		})
	}
	res := &MultiTenantResult{PredictOps: n, RegOps: n}

	// --- predict arm ---
	preq := api.PredictRequest{History: series.Values()[len(series)-48:]}
	payload, err := json.Marshal(preq)
	if err != nil {
		return nil, err
	}
	binary, err := api.AppendPredictBinary(nil, &preq)
	if err != nil {
		return nil, err
	}
	predictPath := "/v1/predict/" + m.ID
	if res.OffAllocs, err = measure(gwOff.Handler(), http.MethodPost, predictPath, nil, payload); err != nil {
		return nil, err
	}
	if res.OnAllocs, err = measure(gwOn.Handler(), http.MethodPost, predictPath, nil, payload); err != nil {
		return nil, err
	}
	if res.OnBinaryAllocs, err = measure(gwOn.Handler(), http.MethodPost, predictPath, []string{api.PredictMediaType}, binary); err != nil {
		return nil, err
	}

	// --- registry arm ---
	if res.RegOffAllocs, err = measure(gdOff.Handler(), http.MethodGet, "/v1/models/"+m.ID, nil, nil); err != nil {
		return nil, err
	}
	if res.RegOnAllocs, err = measure(gdOn.Handler(), http.MethodGet, "/v1/models/"+mOn.ID, nil, nil); err != nil {
		return nil, err
	}

	// --- noisy neighbor ---
	// The noisy bucket starts full (burst 10) and refills one token per
	// 1,000 s, so of 50 back-to-back requests exactly 10 must pass. The
	// quiet tenant has no limit and must feel nothing.
	flood := func(secret string, count int) (ok, limited int, retryAfter string, err error) {
		for i := 0; i < count; i++ {
			rec := call(gwOn.Handler(), http.MethodGet, "/v1/serving", nil, nil, secret)
			switch rec.Code {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				if retryAfter = rec.Header().Get("Retry-After"); retryAfter == "" {
					return 0, 0, "", fmt.Errorf("experiments: 429 without Retry-After")
				}
				limited++
			default:
				return 0, 0, "", fmt.Errorf("experiments: flood status %d: %s", rec.Code, rec.Body.String())
			}
		}
		return ok, limited, retryAfter, nil
	}
	res.NoisySent = 50
	if res.NoisyAllowed, res.NoisyRejected, res.NoisyRetryAfter, err = flood(mtNoisy, res.NoisySent); err != nil {
		return nil, err
	}
	res.QuietSent = 50
	quietLimited := 0
	if res.QuietOK, quietLimited, _, err = flood(mtQuiet, res.QuietSent); err != nil {
		return nil, err
	}
	if quietLimited != 0 {
		return nil, fmt.Errorf("experiments: quiet tenant rate-limited %d times by the noisy tenant's flood", quietLimited)
	}
	return res, nil
}

// parseFlags fills a daemon config from its defaults and args, the way
// the daemon's main does with its command line.
func parseFlags(flags func(*flag.FlagSet), args ...[]string) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	flags(fs)
	var all []string
	for _, a := range args {
		all = append(all, a...)
	}
	return fs.Parse(all)
}
