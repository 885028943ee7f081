package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/obs/profile"
	"gallery/internal/relstore"
	"gallery/internal/serve"
	"gallery/internal/server"
	"gallery/internal/uuid"
)

// ProfileFleetResult is E25: the continuous profiler across the fleet.
// The claims under test:
//
//  1. Fleet view — the gateway's summaries ship over real HTTP to
//     galleryd's ingest endpoint and the merged GET /v1/debug/profile
//     view covers both processes.
//  2. Cost — the predict hot path measures the same allocs/op with the
//     profiler armed as without it.
type ProfileFleetResult struct {
	FleetProcesses int // processes in the merged /v1/debug/profile view
	ShippedWindows int // gateway summaries shipped

	AllocOps            int
	OffAllocs, OnAllocs float64
}

// ProfilerExtraAllocs is the hot-path claim: allocations per predict
// request added by arming the continuous profiler.
func (r *ProfileFleetResult) ProfilerExtraAllocs() float64 { return r.OnAllocs - r.OffAllocs }

// Format renders E25 as paper-style rows.
func (r *ProfileFleetResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "continuous profiling across the fleet:\n")
	fmt.Fprintf(&b, "  fleet: merged /v1/debug/profile covers %d processes (gateway shipped %d summaries over HTTP)\n",
		r.FleetProcesses, r.ShippedWindows)
	fmt.Fprintf(&b, "  predict hot path (%d ops): profiler off allocs/op=%.1f; armed allocs/op=%.1f (extra %+.1f)\n",
		r.AllocOps, r.OffAllocs, r.OnAllocs, r.ProfilerExtraAllocs())
	return b.String()
}

// profileFleetWindow keeps E25's CPU windows short, so the whole
// experiment runs in about a second.
const profileFleetWindow = 300 * time.Millisecond

// ProfileFleet runs E25 with n measured ops per predict-cost arm.
func ProfileFleet(n int) (*ProfileFleetResult, error) {
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clock.NewMock(epoch), UUIDs: uuid.NewSeeded(81),
	})
	if err != nil {
		return nil, err
	}
	m, err := reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "e25_forecaster", Project: "profilefleet", Name: "forecaster",
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
			return fmt.Errorf("profilefleet: predict status %d", rec.Code)
		}
		return nil
	}

	res := &ProfileFleetResult{AllocOps: n}

	// --- cost arm, profiler off ---
	hOff := serve.NewHandler(gw)
	if res.OffAllocs, err = allocsPerOp(n, func() error { return predict(hOff) }); err != nil {
		return nil, err
	}

	// --- galleryd's side of the fleet: its profiler exports in-process ---
	fleet := profile.NewFleet(0)
	pRegistry := profile.New(profile.Config{
		Process: "galleryd", Window: profileFleetWindow, Interval: time.Hour,
		Obs: obs.NewRegistry(), Exporter: fleet.Ingest,
	})
	pRegistry.CaptureCycle()

	// --- the gateway's side: one cycle, shipped over real HTTP ---
	pGateway := profile.New(profile.Config{
		Process: "galleryserve", Window: profileFleetWindow, Interval: time.Hour,
		Obs: obs.NewRegistry(),
	})
	pGateway.CaptureCycle()
	srv := server.NewWith(reg, nil, nil, server.Options{Obs: obs.NewRegistry(), Profiles: fleet})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	cl := client.NewWith(ts.URL, client.Options{})
	shipObs := obs.NewRegistry()
	shipper := obs.NewShipper(shipObs)
	history := pGateway.Ring().History(0)
	res.ShippedWindows = len(history)
	shipper.Export(obs.ChannelProfiles, func(ctx context.Context) error {
		return cl.ExportProfiles(ctx, "galleryserve", history)
	})
	shipper.Close()
	if d := shipObs.SumCounters("telemetry_"); d != 0 {
		return nil, fmt.Errorf("profilefleet: %d profile shipments dropped/failed", d)
	}
	view, err := cl.DebugProfile(0, 0)
	if err != nil {
		return nil, err
	}
	res.FleetProcesses = len(view.Processes)
	if res.FleetProcesses != 2 {
		return nil, fmt.Errorf("profilefleet: fleet view has %d processes, want galleryd + galleryserve", res.FleetProcesses)
	}

	// --- cost arm, profiler armed (capture loop live, between cycles) ---
	hOn := serve.NewHandler(gw, serve.WithProfiler(pGateway))
	wBefore := pGateway.Ring().History(0)
	pGateway.Start()
	defer pGateway.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for len(pGateway.Ring().History(0)) <= len(wBefore) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("profilefleet: armed profiler never completed its first cycle")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if res.OnAllocs, err = allocsPerOp(n, func() error { return predict(hOn) }); err != nil {
		return nil, err
	}
	return res, nil
}
