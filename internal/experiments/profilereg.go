package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/dal"
	"gallery/internal/forecast"
	"gallery/internal/incident"
	"gallery/internal/obs"
	"gallery/internal/obs/profile"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/serve"
	"gallery/internal/server"
	"gallery/internal/uuid"
)

// ProfileRegResult is E25: the continuous-profiling pipeline end to end.
// A healthy workload is profiled into a checked-in-style baseline
// (PROFILE_<process>.json round-tripped through disk), then a CPU hog is
// injected and the live profiler must catch it without human help. The
// claims under test:
//
//  1. Detection — within a handful of windows the delta detector names
//     the injected function (profileregHogEncode) as regressed against
//     the baseline.
//  2. Closed loop — the regression reaches the rules engine as a
//     profile.regression event, a standing rule fires the capture
//     action, and exactly one incident bundle is persisted carrying the
//     profiler ring's pre-trigger history.
//  3. Fleet view — the gateway's summaries ship over real HTTP to
//     galleryd's ingest endpoint and the merged GET /v1/debug/profile
//     view covers both processes.
//  4. Cost — the predict hot path measures the same allocs/op with the
//     profiler armed as without it.
type ProfileRegResult struct {
	BaselineFuncs  int // functions in the round-tripped baseline
	HealthyWindows int
	DetectWindows  int // hog windows until the detector flagged

	HogFunction string  // detector's named function
	HogShare    float64 // its live CPU self-share
	HogFactor   float64 // share / baseline allowance

	CaptureTriggers int64 // capture-action fires (first persists, rest debounce)
	Bundles         int64 // bundles persisted (want exactly 1)
	BundleProfiles  int   // profiler summaries embedded in the bundle

	FleetProcesses int // processes in the merged /v1/debug/profile view

	AllocOps            int
	OffAllocs, OnAllocs float64
}

// ProfilerExtraAllocs is the hot-path claim: allocations per predict
// request added by arming the continuous profiler.
func (r *ProfileRegResult) ProfilerExtraAllocs() float64 { return r.OnAllocs - r.OffAllocs }

// Format renders E25 as paper-style rows.
func (r *ProfileRegResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "continuous profiling (window summaries, baseline %d funcs from %d healthy windows):\n",
		r.BaselineFuncs, r.HealthyWindows)
	fmt.Fprintf(&b, "  detection: hog named %q after %d window(s), self-share %.0f%% = %.0fx its allowance\n",
		r.HogFunction, r.DetectWindows, r.HogShare*100, r.HogFactor)
	fmt.Fprintf(&b, "  closed loop: %d capture trigger(s) -> %d bundle(s) persisted, %d profile summaries embedded\n",
		r.CaptureTriggers, r.Bundles, r.BundleProfiles)
	fmt.Fprintf(&b, "  fleet: merged /v1/debug/profile covers %d processes (gateway shipped over HTTP)\n",
		r.FleetProcesses)
	fmt.Fprintf(&b, "  predict hot path (%d ops): profiler off allocs/op=%.1f; armed allocs/op=%.1f (extra %+.1f)\n",
		r.AllocOps, r.OffAllocs, r.OnAllocs, r.ProfilerExtraAllocs())
	return b.String()
}

// profileregWindow keeps E25's CPU windows short: at the default 100 Hz
// a 300ms window holds ~30 samples, plenty to dominate with a pure-CPU
// hog while keeping the whole experiment under a few seconds.
const profileregWindow = 300 * time.Millisecond

// profileregHogEncode is the injected hot path: a deliberately
// quadratic "encoder" the healthy baseline has never seen. Kept out of
// inlining so CPU samples land on this frame by name.
//
//go:noinline
func profileregHogEncode(buf []float64) float64 {
	acc := 0.0
	for i := range buf {
		for j := range buf {
			acc += math.Sqrt(math.Abs(buf[i] - buf[j]))
		}
	}
	return acc
}

// profileregSteady is the healthy workload whose shape the baseline
// records.
//
//go:noinline
func profileregSteady(buf []float64) float64 {
	acc := 1.0
	for _, v := range buf {
		acc = math.Mod(acc*1.000000119+v, 1e9)
	}
	return acc
}

// profileregSink defeats dead-code elimination of the burn loops.
var profileregSink float64

// profileregBurn runs f in a hot loop on one goroutine until the
// returned stop function is called.
func profileregBurn(f func() float64) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		acc := 0.0
		for {
			select {
			case <-quit:
				profileregSink = acc
				return
			default:
			}
			acc += f()
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// ProfileRegression runs E25 with n measured ops per predict-cost arm.
func ProfileRegression(n int) (*ProfileRegResult, error) {
	dir, err := os.MkdirTemp("", "gallery-e25-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	clk := clock.NewMock(epoch)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(81),
	})
	if err != nil {
		return nil, err
	}
	m, err := reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "e25_forecaster", Project: "profilereg", Name: "forecaster",
	})
	if err != nil {
		return nil, err
	}
	blob, err := forecast.Encode(&forecast.Heuristic{K: 2})
	if err != nil {
		return nil, err
	}
	in, err := reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, Name: "forecaster", City: "sf"}, blob)
	if err != nil {
		return nil, err
	}
	if err := reg.PromoteInstance(in.ID); err != nil {
		return nil, err
	}

	gw := serve.New(regSource{reg}, serve.Options{RefreshInterval: -1, Obs: obs.NewRegistry()})
	defer gw.Close()

	payload, err := json.Marshal(api.PredictRequest{History: []float64{10, 12}})
	if err != nil {
		return nil, err
	}
	predict := func(h *serve.Handler) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict/"+m.ID.String(), strings.NewReader(string(payload)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("profilereg: predict status %d", rec.Code)
		}
		return nil
	}

	res := &ProfileRegResult{AllocOps: n}

	// --- cost arm, profiler off ---
	hOff := serve.NewHandler(gw)
	if res.OffAllocs, err = allocsPerOp(n, func() error { return predict(hOff) }); err != nil {
		return nil, err
	}

	// --- galleryd's side of the fleet: its profiler exports in-process ---
	fleet := profile.NewFleet(0)
	pRegistry := profile.New(profile.Config{
		Process: "galleryd", Window: profileregWindow, Interval: time.Hour,
		Obs: obs.NewRegistry(), Exporter: fleet.Ingest,
	})
	pRegistry.CaptureCycle()

	// --- phase A: healthy workload -> baseline, round-tripped via disk ---
	pHealthy := profile.New(profile.Config{
		Process: "galleryserve", Window: profileregWindow, Interval: time.Hour,
		Obs: obs.NewRegistry(), Kinds: []string{},
	})
	steadyBuf := make([]float64, 4096)
	for i := range steadyBuf {
		steadyBuf[i] = float64(i % 97)
	}
	stopSteady := profileregBurn(func() float64 { return profileregSteady(steadyBuf) })
	res.HealthyWindows = 2
	for i := 0; i < res.HealthyWindows; i++ {
		pHealthy.CaptureCycle()
	}
	stopSteady()
	healthy := profile.Merge(pHealthy.Ring().Recent(profile.KindCPU, 0), profile.DefaultTopN)
	if healthy.Samples == 0 {
		return nil, fmt.Errorf("profilereg: healthy windows collected no CPU samples")
	}
	if err := profile.WriteBaseline(dir, profile.BaselineOf("galleryserve", healthy)); err != nil {
		return nil, err
	}
	base, err := profile.LoadBaseline(filepath.Join(dir, profile.BaselineFileName("galleryserve")))
	if err != nil {
		return nil, err
	}
	res.BaselineFuncs = len(base.Shares)

	// --- the closed loop: detector -> rules engine -> capture action ---
	o := obs.NewRegistry()
	repo := rules.NewRepo(clk)
	engine := rules.NewEngine(reg, repo, clk)
	detector := profile.NewDetector(profile.DetectorConfig{Baseline: base, Obs: o, Sink: engine.Event})
	pLive := profile.New(profile.Config{
		Process: "galleryserve", Window: profileregWindow, Interval: time.Hour,
		Obs: obs.NewRegistry(), Detector: detector,
	})
	rec, err := incident.Open(dal.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), dal.Options{Obs: o}), incident.Config{
		Obs: o, Clock: clk, UUIDs: uuid.NewSeeded(82), Profiles: pLive.Ring(),
	})
	if err != nil {
		return nil, err
	}
	engine.RegisterAction("capture", incident.CaptureAction(rec))
	rule := &rules.Rule{
		UUID: "e25-profile-capture", Team: "platform", Kind: rules.KindAction,
		When:    `profile.event == "regression" && profile.factor > 3.0`,
		Actions: []rules.ActionRef{{Action: "capture"}},
	}
	if _, err := repo.Commit("platform", "profile regression capture", []*rules.Rule{rule}, nil); err != nil {
		return nil, err
	}

	// --- phase B: inject the hog; the detector must name it ---
	hogBuf := make([]float64, 256)
	for i := range hogBuf {
		hogBuf[i] = float64(i%31) * 1.7
	}
	stopHog := profileregBurn(func() float64 { return profileregHogEncode(hogBuf) })
	for w := 1; w <= 6; w++ {
		pLive.CaptureCycle()
		if regs := detector.Last(); len(regs) > 0 {
			for _, r := range regs {
				if strings.Contains(r.Function, "profileregHogEncode") {
					res.DetectWindows = w
					res.HogFunction = r.Function
					res.HogShare = r.Share
					res.HogFactor = r.Factor
				}
			}
			if res.DetectWindows > 0 {
				break
			}
		}
	}
	stopHog()
	if res.DetectWindows == 0 {
		return nil, fmt.Errorf("profilereg: detector never named the hog in 6 windows (last: %+v)", detector.Last())
	}

	cCaptures := o.Counter("incident_captures_total")
	cSuppressed := o.Counter("incident_suppressed_total")
	res.Bundles = cCaptures.Value()
	res.CaptureTriggers = res.Bundles + cSuppressed.Value()
	if res.Bundles != 1 {
		return nil, fmt.Errorf("profilereg: %d bundles persisted across %d capture triggers, want exactly 1 (debounce)",
			res.Bundles, res.CaptureTriggers)
	}
	incs, err := rec.List("")
	if err != nil {
		return nil, err
	}
	if len(incs) != 1 {
		return nil, fmt.Errorf("profilereg: List = %d incidents, want 1", len(incs))
	}
	_, bundle, err := rec.Get(context.Background(), incs[0].ID)
	if err != nil {
		return nil, err
	}
	res.BundleProfiles = len(bundle.Registry.Profiles)
	hasCPU := false
	for _, s := range bundle.Registry.Profiles {
		if s.Kind == profile.KindCPU {
			hasCPU = true
		}
	}
	if res.BundleProfiles == 0 || !hasCPU {
		return nil, fmt.Errorf("profilereg: bundle profile history missing CPU windows: %+v", bundle.Registry.Profiles)
	}

	// --- fleet aggregation: the gateway ships over real HTTP ---
	srv := server.NewWith(reg, nil, nil, server.Options{Obs: obs.NewRegistry(), Profiles: fleet})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	cl := client.NewWith(ts.URL, client.Options{})
	shipObs := obs.NewRegistry()
	shipper := obs.NewShipper(shipObs)
	history := pLive.Ring().History(0)
	shipper.Export(obs.ChannelProfiles, func(ctx context.Context) error {
		return cl.ExportProfiles(ctx, "galleryserve", history)
	})
	shipper.Close()
	if d := shipObs.SumCounters("telemetry_"); d != 0 {
		return nil, fmt.Errorf("profilereg: %d profile shipments dropped/failed", d)
	}
	view, err := cl.DebugProfile(0, 0)
	if err != nil {
		return nil, err
	}
	res.FleetProcesses = len(view.Processes)
	if res.FleetProcesses != 2 {
		return nil, fmt.Errorf("profilereg: fleet view has %d processes, want galleryd + galleryserve", res.FleetProcesses)
	}

	// --- cost arm, profiler armed (capture loop live, between cycles) ---
	hOn := serve.NewHandler(gw, serve.WithProfiler(pLive))
	wBefore := pLive.Ring().History(0)
	pLive.Start()
	defer pLive.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for len(pLive.Ring().History(0)) <= len(wBefore) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("profilereg: armed profiler never completed its first cycle")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if res.OnAllocs, err = allocsPerOp(n, func() error { return predict(hOn) }); err != nil {
		return nil, err
	}
	return res, nil
}
