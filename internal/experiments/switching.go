package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/rules"
	"gallery/internal/uuid"
)

// Experiment E8 — paper §4.2: dynamic model switching for events
// "improves the accuracy of the served predictions by more than 10% MAPE
// compared to a static served model." Gallery stores event-hour and
// regular-hour production MAPE separately for models with and without
// holiday/event features; the serving system asks the rule engine for the
// appropriate champion for the duration of each event.

// SwitchingCityResult is one city's outcome.
type SwitchingCityResult struct {
	City         string
	StaticMAPE   float64
	SwitchedMAPE float64
}

// Improvement is the relative MAPE improvement of switching.
func (r SwitchingCityResult) Improvement() float64 {
	return 100 * (r.StaticMAPE - r.SwitchedMAPE) / r.StaticMAPE
}

// SwitchingResult is the sweep outcome.
type SwitchingResult struct {
	Cities []SwitchingCityResult
}

// OverallImprovement aggregates across cities.
func (r *SwitchingResult) OverallImprovement() float64 {
	var s, w float64
	for _, c := range r.Cities {
		s += c.StaticMAPE
		w += c.SwitchedMAPE
	}
	return 100 * (s - w) / s
}

const (
	swTrainDays = 42
	swTestDays  = 21
	swHorizon   = 3 // hours ahead the marketplace needs forecasts
)

// DynamicSwitching runs the experiment over nCities synthetic cities.
func DynamicSwitching(nCities int, seed int64) (*SwitchingResult, error) {
	env := mustEnv(seed)
	eventRule := &rules.Rule{
		UUID: "switch-event", Team: "forecasting", Kind: rules.KindSelection,
		When:           `has(metrics, "mape_event")`,
		ModelSelection: "a.metrics.mape_event < b.metrics.mape_event",
	}
	regularRule := &rules.Rule{
		UUID: "switch-regular", Team: "forecasting", Kind: rules.KindSelection,
		When:           `has(metrics, "mape_regular")`,
		ModelSelection: "a.metrics.mape_regular < b.metrics.mape_regular",
	}
	if _, err := env.Repo.Commit("forecasting", "switch rules",
		[]*rules.Rule{eventRule, regularRule}, nil); err != nil {
		return nil, err
	}

	cities := forecast.DefaultCities(nCities, seed)
	for i := range cities {
		for w := 0; w < (swTrainDays+swTestDays)/7; w++ {
			evStart := epoch.Add(time.Duration(w)*7*24*time.Hour + 5*24*time.Hour)
			cities[i].Events = append(cities[i].Events, forecast.Event{
				Start: evStart, End: evStart.Add(48 * time.Hour), Multiplier: 2.0,
			})
		}
	}

	res := &SwitchingResult{}
	for _, city := range cities {
		cr, err := switchingCity(env, city)
		if err != nil {
			return nil, err
		}
		res.Cities = append(res.Cities, cr)
	}
	return res, nil
}

func switchingCity(env *Env, city forecast.CityConfig) (SwitchingCityResult, error) {
	res := SwitchingCityResult{City: city.Name}
	data := forecast.Generate(city, epoch, time.Hour, (swTrainDays+swTestDays)*24)
	trainN := swTrainDays * 24
	values := data.Values()
	eventFlags := make([]bool, len(data))
	for i, p := range data {
		eventFlags[i] = p.Event
	}

	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "switch_" + city.Name, Project: "marketplace-forecasting",
		Name: "demand_forecaster", Domain: "UberX",
	})
	if err != nil {
		return res, err
	}

	type cand struct {
		model forecast.Model
		inst  *core.Instance
	}
	var candidates []cand
	for _, fm := range []forecast.Model{
		&forecast.LinearAR{Lags: 24, Horizon: swHorizon},
		&forecast.LinearAR{Lags: 24, Horizon: swHorizon, UseEventFeature: true},
	} {
		if err := fm.Train(data[:trainN]); err != nil {
			return res, err
		}
		blob, err := forecast.Encode(fm)
		if err != nil {
			return res, err
		}
		env.Clock.Advance(time.Minute)
		in, err := env.Reg.UploadInstance(core.InstanceSpec{
			ModelID: m.ID, Name: fm.Name(), City: city.Name, Framework: "gallery-forecast",
		}, blob)
		if err != nil {
			return res, err
		}
		candidates = append(candidates, cand{model: fm, inst: in})
	}
	byID := make(map[uuid.UUID]forecast.Model, len(candidates))
	for _, c := range candidates {
		byID[c.inst.ID] = c.model
	}

	forecastAt := func(mdl forecast.Model, i int) float64 {
		cut := i - swHorizon + 1
		return mdl.Forecast(forecast.Context{
			History: values[:cut], HistoryEvents: eventFlags[:cut],
			Time: data[i].T, Event: data[i].Event,
		})
	}

	report := func(from, to int) error {
		for _, c := range candidates {
			var pe, ae, pr, ar []float64
			for i := from; i < to; i++ {
				p := forecastAt(c.model, i)
				if data[i].Event {
					pe, ae = append(pe, p), append(ae, values[i])
				} else {
					pr, ar = append(pr, p), append(ar, values[i])
				}
			}
			env.Clock.Advance(time.Minute)
			if len(ae) > 0 {
				met, err := forecast.Evaluate(pe, ae)
				if err != nil {
					return err
				}
				if _, err := env.Reg.InsertMetric(context.Background(), c.inst.ID, "mape_event", core.ScopeProduction, met.MAPE); err != nil {
					return err
				}
			}
			if len(ar) > 0 {
				met, err := forecast.Evaluate(pr, ar)
				if err != nil {
					return err
				}
				if _, err := env.Reg.InsertMetric(context.Background(), c.inst.ID, "mape_regular", core.ScopeProduction, met.MAPE); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := report(trainN-7*24, trainN); err != nil {
		return res, err
	}

	serve := func(pick func(i int) (forecast.Model, error)) (float64, error) {
		var preds, actuals []float64
		for day := 0; day < swTestDays; day++ {
			from := trainN + day*24
			for i := from; i < from+24; i++ {
				mdl, err := pick(i)
				if err != nil {
					return 0, err
				}
				preds = append(preds, forecastAt(mdl, i))
				actuals = append(actuals, values[i])
			}
			if err := report(from, from+24); err != nil {
				return 0, err
			}
		}
		met, err := forecast.Evaluate(preds, actuals)
		if err != nil {
			return 0, err
		}
		return met.MAPE, nil
	}

	// Static baseline: the model without event features, fixed.
	static := candidates[0].model
	res.StaticMAPE, err = serve(func(int) (forecast.Model, error) { return static, nil })
	if err != nil {
		return res, err
	}

	champion := func(ruleID string) (forecast.Model, error) {
		in, err := env.Engine.SelectModel(ruleID, core.InstanceFilter{City: city.Name})
		if err != nil {
			return nil, err
		}
		return byID[in.ID], nil
	}
	res.SwitchedMAPE, err = serve(func(i int) (forecast.Model, error) {
		if data[i].Event {
			return champion("switch-event")
		}
		return champion("switch-regular")
	})
	return res, err
}

// Format renders the switching table.
func (r *SwitchingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-14s %-14s %s\n", "city", "static MAPE", "switched MAPE", "improvement")
	for _, c := range r.Cities {
		fmt.Fprintf(&b, "%-16s %-14.2f %-14.2f %.1f%%\n", c.City, c.StaticMAPE, c.SwitchedMAPE, c.Improvement())
	}
	fmt.Fprintf(&b, "overall improvement: %.1f%% (paper §4.2 reports >10%%)\n", r.OverallImprovement())
	return b.String()
}
