package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gallery/internal/api"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/serve"
	"gallery/internal/uuid"
)

// regSource adapts a core.Registry to serve.Source, bypassing HTTP so the
// serving ablation measures the gateway itself rather than the sockets.
type regSource struct{ reg *core.Registry }

func (s regSource) ProductionVersion(modelID string) (api.VersionRecord, error) {
	id, err := uuid.Parse(modelID)
	if err != nil {
		return api.VersionRecord{}, err
	}
	v, err := s.reg.ProductionVersion(context.Background(), id)
	if err != nil {
		return api.VersionRecord{}, err
	}
	return api.VersionRecord{
		ID:         v.ID.String(),
		ModelID:    v.ModelID.String(),
		Major:      v.Major,
		Minor:      v.Minor,
		Version:    v.String(),
		InstanceID: v.InstanceID.String(),
	}, nil
}

func (s regSource) FetchBlob(instanceID string) ([]byte, error) {
	id, err := uuid.Parse(instanceID)
	if err != nil {
		return nil, err
	}
	return s.reg.FetchBlob(context.Background(), id)
}

// ServingResult is the serving-gateway experiment outcome: a prediction
// storm answered by a promoted LinearAR instance, with a hot swap landing
// mid-storm.
type ServingResult struct {
	Clients   int
	PerClient int
	// AllocsPerOp is the exact heap allocation count per prediction,
	// measured single-client after the storm.
	AllocsPerOp float64
	// SwapServed reports that after the mid-storm promotion, predictions
	// came from the new instance.
	SwapServed bool
}

// Format renders the experiment as paper-style rows.
func (r *ServingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prediction storm: %d clients x %d predictions, LinearAR production instance, hot swap mid-storm, 0 failed\n",
		r.Clients, r.PerClient)
	fmt.Fprintf(&b, "  allocs/op=%.1f\n", r.AllocsPerOp)
	fmt.Fprintf(&b, "  swap served new instance: %v\n", r.SwapServed)
	return b.String()
}

// ServingGateway runs the serving-tier experiment: concurrent predictions
// with a promotion landing mid-storm. A run with failed predictions or a
// swap that never reaches traffic is an experiment failure.
func ServingGateway(clients, perClient int) (*ServingResult, error) {
	ctx := context.Background()
	env, err := NewEnv(31)
	if err != nil {
		return nil, err
	}
	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "serving_bench", Project: "bench", Name: "demand", Domain: "UberX",
	})
	if err != nil {
		return nil, err
	}

	// One trained LinearAR champion and one challenger for the mid-storm
	// swap. Two months of hourly data; predictions carry a month-long
	// history window, so the per-prediction feature work is realistic.
	series := forecast.Generate(forecast.CityConfig{
		Name: "sf", Base: 100, GrowthPerWeek: 3, DailyAmp: 20, WeeklyAmp: 10, NoiseStd: 2, Seed: 31,
	}, epoch, time.Hour, 24*56)
	champion := &forecast.LinearAR{Lags: 48}
	if err := champion.Train(series); err != nil {
		return nil, err
	}
	challenger := &forecast.LinearAR{Lags: 24}
	if err := challenger.Train(series); err != nil {
		return nil, err
	}

	upload := func(mdl forecast.Model, name string) (*core.Instance, error) {
		blob, err := forecast.Encode(mdl)
		if err != nil {
			return nil, err
		}
		env.Clock.Advance(time.Minute)
		return env.Reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, Name: name, City: "sf"}, blob)
	}

	hist := series.Values()[len(series)-24*28:]
	fctx := forecast.Context{History: hist, Time: series[len(series)-1].T.Add(time.Hour)}

	champ, err := upload(champion, "champion")
	if err != nil {
		return nil, err
	}
	chall, err := upload(challenger, "challenger")
	if err != nil {
		return nil, err
	}
	if err := env.Reg.PromoteInstanceCtx(ctx, champ.ID); err != nil {
		return nil, err
	}

	modelID := m.ID.String()
	gw := serve.New(regSource{env.Reg}, serve.Options{RefreshInterval: -1, Obs: obs.NewRegistry()})
	defer gw.Close()
	// The gateway caches the champion before the promotion.
	if _, err := gw.PredictCtx(ctx, modelID, fctx); err != nil {
		return nil, err
	}
	// The refresh is what moves the gateway mid-storm.
	if err := servingStorm(gw, modelID, fctx, clients, perClient, func() error {
		if err := env.Reg.PromoteInstanceCtx(ctx, chall.ID); err != nil {
			return err
		}
		gw.RefreshAll()
		return nil
	}); err != nil {
		return nil, fmt.Errorf("experiments: serving storm: %w", err)
	}
	resp, err := gw.PredictCtx(ctx, modelID, fctx)
	if err != nil {
		return nil, err
	}
	res := &ServingResult{Clients: clients, PerClient: perClient, SwapServed: resp.InstanceID == chall.ID.String()}
	if res.AllocsPerOp, err = allocsPerOp(1000, func() error {
		_, err := gw.PredictCtx(ctx, modelID, fctx)
		return err
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// servingStorm runs clients goroutines of perClient predictions each
// against gw, invoking swap from the sidelines once client 0 is half done:
// a promotion landing under fire. Any failed prediction is an error.
func servingStorm(gw *serve.Gateway, modelID string, fctx forecast.Context, clients, perClient int, swap func() error) error {
	var (
		wg     sync.WaitGroup
		failed atomic.Int64
		half   = make(chan struct{})
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i == perClient/2 {
					close(half)
				}
				if _, err := gw.PredictCtx(context.Background(), modelID, fctx); err != nil {
					failed.Add(1)
				}
			}
		}(c)
	}
	<-half
	swapErr := swap()
	wg.Wait()
	if swapErr != nil {
		return swapErr
	}
	if n := failed.Load(); n != 0 {
		return fmt.Errorf("dropped %d predictions", n)
	}
	return nil
}
