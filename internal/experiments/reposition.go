package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/sim"
	"gallery/internal/uuid"
)

// Experiment E17 (extension) — model quality has operational value. The
// paper motivates Gallery with forecasts that feed marketplace operations
// ("driver suggestions and pricing", §4.2); this experiment closes that
// loop: demand shifts between city quadrants over the day, idle drivers
// are repositioned toward forecast hot spots, and the forecaster quality
// determines rider wait times. All models travel through Gallery as
// blobs, exactly like the production flow.

// RepositionArm is one policy's outcome, averaged over seeds.
type RepositionArm struct {
	Name            string
	MeanWaitSec     float64
	MeanPickupKm    float64
	AbandonedRiders float64
	Repositions     float64
}

// RepositionResult holds all arms.
type RepositionResult struct {
	Seeds int
	Arms  []RepositionArm
}

// DriverRepositioning runs three arms over the same worlds: no
// repositioning, repositioning with a lagging heuristic forecaster, and
// repositioning with a calendar-aware linear AR forecaster.
func DriverRepositioning(seeds int) (*RepositionResult, error) {
	if seeds <= 0 {
		seeds = 3
	}
	env := mustEnv(17)

	const (
		baseDemand = 150
		shift      = 0.9
	)
	// Publish per-quadrant forecasters to Gallery: a lagging heuristic
	// and a calendar-aware AR per quadrant, trained offline on quadrant
	// demand history.
	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "quadrant_demand", Project: "marketplace-simulation",
		Name: "quadrant_forecaster",
	})
	if err != nil {
		return nil, err
	}
	publish := func(build func(q int) (forecast.Model, error)) ([]uuid.UUID, error) {
		ids := make([]uuid.UUID, 4)
		for q := 0; q < 4; q++ {
			fm, err := build(q)
			if err != nil {
				return nil, err
			}
			blob, err := forecast.Encode(fm)
			if err != nil {
				return nil, err
			}
			env.Clock.Advance(time.Minute)
			in, err := env.Reg.UploadInstance(core.InstanceSpec{
				ModelID: m.ID, Name: fm.Name(), City: fmt.Sprintf("quadrant-%d", q),
				Framework: "gallery-forecast",
			}, blob)
			if err != nil {
				return nil, err
			}
			ids[q] = in.ID
		}
		return ids, nil
	}
	heuristicIDs, err := publish(func(q int) (forecast.Model, error) {
		fm := &forecast.Heuristic{K: 3}
		return fm, fm.Train(nil)
	})
	if err != nil {
		return nil, err
	}
	arIDs, err := publish(func(q int) (forecast.Model, error) {
		// Short lags so the model is usable on the history a single
		// simulated day accumulates; the calendar harmonics carry the
		// anticipation of the daily shift.
		fm := &forecast.LinearAR{Lags: 3}
		train := sim.QuadrantTrainingSeries(baseDemand, shift, q, 24*45, 7)
		return fm, fm.Train(train)
	})
	if err != nil {
		return nil, err
	}

	// fetch decodes the four quadrant models back out of Gallery.
	fetch := func(ids []uuid.UUID) ([]forecast.Model, error) {
		out := make([]forecast.Model, len(ids))
		for i, id := range ids {
			blob, err := env.Reg.FetchBlob(context.Background(), id)
			if err != nil {
				return nil, err
			}
			fm, err := forecast.Decode(blob)
			if err != nil {
				return nil, err
			}
			out[i] = fm
		}
		return out, nil
	}

	arms := []struct {
		name string
		ids  []uuid.UUID // nil = no repositioning
	}{
		{"no repositioning", nil},
		{"heuristic forecaster", heuristicIDs},
		{"linear AR forecaster", arIDs},
	}

	res := &RepositionResult{Seeds: seeds}
	for _, arm := range arms {
		agg := RepositionArm{Name: arm.name}
		for s := 0; s < seeds; s++ {
			cfg := sim.Config{
				Mode:           sim.ModeInSimTraining,
				ModelVariants:  1,
				TrainingPoints: 300,
				Drivers:        60,
				DurationHours:  24,
				BaseDemand:     baseDemand,
				SpatialShift:   shift,
				Seed:           int64(1000 + s),
			}
			if arm.ids != nil {
				models, err := fetch(arm.ids)
				if err != nil {
					return nil, err
				}
				cfg.RepositionEverySec = 600
				cfg.RepositionFraction = 0.7
				cfg.RepositionModels = models
			}
			rep, err := sim.Run(cfg)
			if err != nil {
				return nil, err
			}
			agg.MeanWaitSec += rep.MeanWaitSec
			agg.MeanPickupKm += rep.MeanPickupKm
			agg.AbandonedRiders += float64(rep.AbandonedRiders)
			agg.Repositions += float64(rep.Repositions)
		}
		n := float64(seeds)
		agg.MeanWaitSec /= n
		agg.MeanPickupKm /= n
		agg.AbandonedRiders /= n
		agg.Repositions /= n
		res.Arms = append(res.Arms, agg)
	}
	return res, nil
}

// Format renders the arm comparison.
func (r *RepositionResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d seeds averaged; demand shifts between quadrants over the day\n", r.Seeds)
	fmt.Fprintf(&b, "%-24s %-14s %-14s %-12s %s\n", "policy", "mean wait (s)", "pickup (km)", "abandoned", "repositions")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "%-24s %-14.1f %-14.2f %-12.1f %.0f\n",
			a.Name, a.MeanWaitSec, a.MeanPickupKm, a.AbandonedRiders, a.Repositions)
	}
	b.WriteString("better forecasts -> better driver placement -> lower rider waits (the operational value of model quality)\n")
	return b.String()
}
