package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gallery/internal/api"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/health"
	"gallery/internal/obs"
	"gallery/internal/rules"
	"gallery/internal/serve"
)

// Experiment E19 — continuous model health (paper §3.6 made continuous).
// A serving gateway answers live traffic with a promoted model while
// recording distribution sketches of its own predictions. Mid-run the
// demand regime permanently shifts (workload ShiftAt/ShiftFactor); the
// health monitor sees the live prediction distribution walk away from the
// reference it captured after promotion, flips the model to degraded via
// PSI, and the health.drift event fires a retrain rule — no metric is
// ever ingested by hand.

// OnlineDriftWindow is one observation window of the run.
type OnlineDriftWindow struct {
	Index   int // 1-based
	Shifted bool
	PSI     float64
	Status  string
}

// OnlineDriftResult is the experiment outcome.
type OnlineDriftResult struct {
	ShiftFactor  float64
	Windows      []OnlineDriftWindow
	DegradedAt   int // first window index judged degraded (0 = never)
	RetrainFired int
	FinalPSI     float64
	FinalStatus  string
}

// OnlineDrift runs the experiment: preWindows windows of steady traffic,
// then postWindows windows after a 1.6x regime shift.
func OnlineDrift(preWindows, postWindows int) (*OnlineDriftResult, error) {
	const (
		windowHours = 72
		trainHours  = 24 * 14
		shiftFactor = 1.6
	)
	env := mustEnv(16)
	totalWindows := preWindows + postWindows
	city := forecast.CityConfig{
		Name: "drift_city", Base: 400, DailyAmp: 120, WeeklyAmp: 40, NoiseStd: 15, Seed: 16,
		ShiftAt:     epoch.Add(time.Duration(trainHours+preWindows*windowHours) * time.Hour),
		ShiftFactor: shiftFactor,
	}
	data := forecast.Generate(city, epoch, time.Hour, trainHours+totalWindows*windowHours)
	values := data.Values()

	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "drift_demand", Project: "marketplace", Name: "forecaster",
	})
	if err != nil {
		return nil, err
	}
	fm := &forecast.LinearAR{Lags: 24}
	if err := fm.Train(data[:trainHours]); err != nil {
		return nil, err
	}
	blob, err := forecast.Encode(fm)
	if err != nil {
		return nil, err
	}
	in, err := env.Reg.UploadInstance(core.InstanceSpec{
		ModelID: m.ID, Name: "forecaster", City: city.Name,
	}, blob)
	if err != nil {
		return nil, err
	}
	if err := env.Reg.PromoteInstanceCtx(context.Background(), in.ID); err != nil {
		return nil, err
	}

	// The standing rule: hard distribution drift triggers a retrain.
	if _, err := env.Repo.Commit("oncall", "retrain on drift", []*rules.Rule{{
		UUID:        "7a0e16d0-0000-4000-8000-000000000e16",
		Team:        "marketplace",
		Name:        "retrain-on-drift",
		Kind:        rules.KindAction,
		When:        `health.event == "drift" && health.psi > 0.25`,
		Environment: "production",
		Actions:     []rules.ActionRef{{Action: "retrain"}},
	}}, nil); err != nil {
		return nil, err
	}
	res := &OnlineDriftResult{ShiftFactor: shiftFactor}
	env.Engine.RegisterAction("retrain", func(*rules.ActionContext) error {
		res.RetrainFired++
		return nil
	})

	mon := health.New(env.Reg, health.Config{
		ReferenceWindows: 2,
		LiveWindows:      2,
		MinSamples:       100, // a single 72-sample window is too noisy to judge
		Interval:         -1,  // the run drives Evaluate per window
		Obs:              obs.NewRegistry(),
		Events:           env.Engine.Event,
	})
	// Gateway flushes feed the in-process monitor straight, standing in
	// for the shipper's HTTP hop in the deployed system.
	ctx := context.Background()
	var ingestErr error
	gw := serve.New(regSource{env.Reg}, serve.Options{
		Name:            "gw-drift",
		RefreshInterval: -1,
		HealthSink: func(req api.HealthObservationsRequest) {
			_, ingestErr = mon.Ingest(ctx, req)
		},
		HealthInterval: -1,
		Obs:            obs.NewRegistry(),
	})
	defer gw.Close()

	for w := 0; w < totalWindows; w++ {
		start := trainHours + w*windowHours
		for i := start; i < start+windowHours; i++ {
			// Live traffic: forecast the next hour from everything seen so
			// far. After ShiftAt the history (and so the AR model's
			// output) rides the new regime.
			if _, err := gw.PredictCtx(ctx, m.ID.String(), forecast.Context{
				History: values[:i],
				Time:    data[i].T,
			}); err != nil {
				return nil, err
			}
		}
		if gw.FlushHealth(); ingestErr != nil {
			return nil, ingestErr
		}
		mon.Evaluate(ctx)
		env.Engine.Flush()
		mh, ok := mon.ModelHealth(m.ID.String())
		if !ok {
			return nil, fmt.Errorf("onlinedrift: model untracked after window %d", w+1)
		}
		res.Windows = append(res.Windows, OnlineDriftWindow{
			Index:   w + 1,
			Shifted: w >= preWindows,
			PSI:     mh.PSI,
			Status:  mh.Status,
		})
		if res.DegradedAt == 0 && mh.Status == string(health.StatusDegraded) {
			res.DegradedAt = w + 1
		}
		res.FinalPSI = mh.PSI
		res.FinalStatus = mh.Status
	}
	return res, nil
}

// Format renders the window timeline as paper-style rows.
func (r *OnlineDriftResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "online drift detection (regime shift x%.1f):\n", r.ShiftFactor)
	fmt.Fprintf(&b, "%-8s %-8s %8s  %s\n", "window", "regime", "psi", "status")
	for _, w := range r.Windows {
		regime := "steady"
		if w.Shifted {
			regime = "shifted"
		}
		fmt.Fprintf(&b, "%-8d %-8s %8.3f  %s\n", w.Index, regime, w.PSI, w.Status)
	}
	fmt.Fprintf(&b, "degraded at window %d; retrain rule fired %d time(s)\n",
		r.DegradedAt, r.RetrainFired)
	return b.String()
}
