package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gallery/internal/api"
	"gallery/internal/benchfmt"
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
	v, err := s.reg.ProductionVersion(id)
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
	return s.reg.FetchBlob(id)
}

// ServingArm is one row of the batching ablation.
type ServingArm struct {
	Name     string
	MaxBatch int
	// AllocsPerOp is the exact heap allocation count per prediction,
	// measured single-client after the storm.
	AllocsPerOp float64
}

// ServingResult is the serving-gateway experiment outcome: the same
// prediction storm answered by the same promoted LinearAR instance with
// micro-batching off and on, with a hot swap under fire in each arm.
type ServingResult struct {
	Clients   int
	PerClient int
	Arms      []ServingArm
	// SwapServed reports that after the mid-storm promotion, predictions
	// came from the new instance in both arms.
	SwapServed bool
}

// Format renders the ablation as paper-style rows.
func (r *ServingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prediction storm: %d clients x %d predictions, LinearAR production instance, hot swap mid-storm, 0 failed\n",
		r.Clients, r.PerClient)
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "  %-14s allocs/op=%.1f\n", a.Name, a.AllocsPerOp)
	}
	fmt.Fprintf(&b, "  swap served new instance in both arms: %v\n", r.SwapServed)
	return b.String()
}

// ServingGateway runs the serving-tier ablation: batching off vs on under
// concurrent load, with a promotion landing mid-storm in each arm. A run
// with failed predictions or a swap that never reaches traffic is an
// experiment failure.
func ServingGateway(clients, perClient int) (*ServingResult, error) {
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
	// swap; the history window is sized so the per-prediction feature work
	// is realistic.
	// Two months of hourly data; predictions carry a month-long history
	// window, the realistic regime where the unbatched path's per-call
	// buffer allocations are what batching amortizes away.
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
	if err := env.Reg.PromoteInstance(champ.ID); err != nil {
		return nil, err
	}

	res := &ServingResult{Clients: clients, PerClient: perClient, SwapServed: true}
	modelID := m.ID.String()
	arms := []ServingArm{
		{Name: "batch=off", MaxBatch: 0},
		{Name: "batch=32", MaxBatch: 32},
	}
	gws := make([]*serve.Gateway, len(arms))
	for i, arm := range arms {
		gw := serve.New(regSource{env.Reg}, serve.Options{
			RefreshInterval: -1,
			MaxBatch:        arm.MaxBatch,
			BatchWorkers:    1,
			Obs:             obs.NewRegistry(),
		})
		defer gw.Close()
		// Both gateways cache the champion before the first promotion.
		if _, err := gw.Predict(modelID, fctx); err != nil {
			return nil, err
		}
		gws[i] = gw
	}
	for i, arm := range arms {
		gw := gws[i]
		// PromoteInstance is idempotent, so each arm can issue it; the
		// refresh is what moves this gateway mid-storm.
		if err := servingStorm(gw, modelID, fctx, clients, perClient, func() error {
			if err := env.Reg.PromoteInstance(chall.ID); err != nil {
				return err
			}
			gw.RefreshAll()
			return nil
		}); err != nil {
			return nil, fmt.Errorf("experiments: serving arm %s: %w", arm.Name, err)
		}
		resp, err := gw.Predict(modelID, fctx)
		if err != nil {
			return nil, err
		}
		if resp.InstanceID != chall.ID.String() {
			res.SwapServed = false
		}
		if arm.AllocsPerOp, err = allocsPerOp(1000, func() error {
			_, err := gw.Predict(modelID, fctx)
			return err
		}); err != nil {
			return nil, err
		}
		res.Arms = append(res.Arms, arm)
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
				if _, err := gw.Predict(modelID, fctx); err != nil {
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

// BenchMetrics emits the experiment's BENCH_serving.json gates: whole
// heap allocations per prediction in each arm (the batched arm's pooled
// path reads 0), and whether the swap reached traffic.
func (r *ServingResult) BenchMetrics() []benchfmt.Metric {
	var ms []benchfmt.Metric
	for _, a := range r.Arms {
		prefix := strings.ReplaceAll(a.Name, "=", "_")
		ms = append(ms, benchfmt.Metric{Name: prefix + "_allocs_per_op", Unit: "allocs/op", Value: wholeAllocs(a.AllocsPerOp), Better: benchfmt.LowerIsBetter, Tol: 0.5})
	}
	swap := 0.0
	if r.SwapServed {
		swap = 1
	}
	return append(ms, benchfmt.Metric{Name: "swap_served", Value: swap, Better: benchfmt.HigherIsBetter, Tol: 0.01})
}
