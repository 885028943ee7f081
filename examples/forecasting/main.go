// Forecasting reproduces the Marketplace Forecasting case study (paper
// §4.2) end to end: per-city demand, multiple model classes trained and
// stored per city, rule-engine champion selection from Gallery metrics,
// and dynamic model switching around events — the mechanism the paper
// credits with >10% MAPE improvement over a static served model.
//
// The switching works the way the paper describes: Gallery holds separate
// production performance for event hours and regular hours ("the
// performance of models that include holiday/event features versus those
// that do not"), and the serving system asks the rule engine for the
// appropriate champion when an event begins and ends.
//
// Run with: go run ./examples/forecasting
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/uuid"
)

const (
	trainDays   = 42
	testDays    = 21
	hoursPerDay = 24
	// horizon is how many hours ahead the marketplace needs demand
	// forecasts; at multi-hour horizons the event calendar is decisive.
	horizon = 3
)

func main() {
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	repo := rules.NewRepo(nil)
	engine := rules.NewEngine(reg, repo, nil)

	// Two champion-selection rules: lowest recent production MAPE during
	// events, and during regular hours.
	eventRule := &rules.Rule{
		UUID: uuid.New().String(), Team: "forecasting", Name: "serve-event-champion",
		Kind:           rules.KindSelection,
		When:           `has(metrics, "mape_event")`,
		ModelSelection: "a.metrics.mape_event < b.metrics.mape_event",
	}
	regularRule := &rules.Rule{
		UUID: uuid.New().String(), Team: "forecasting", Name: "serve-regular-champion",
		Kind:           rules.KindSelection,
		When:           `has(metrics, "mape_regular")`,
		ModelSelection: "a.metrics.mape_regular < b.metrics.mape_regular",
	}
	if _, err := repo.Commit("forecasting", "champion rules", []*rules.Rule{eventRule, regularRule}, nil); err != nil {
		log.Fatal(err)
	}

	start := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	cities := forecast.DefaultCities(3, 11)
	// Recurring holiday-like demand spikes in every city.
	for i := range cities {
		for w := 0; w < (trainDays+testDays)/7; w++ {
			evStart := start.Add(time.Duration(w)*7*24*time.Hour + 5*24*time.Hour)
			cities[i].Events = append(cities[i].Events, forecast.Event{
				Start: evStart, End: evStart.Add(48 * time.Hour), Multiplier: 2.0,
			})
		}
	}

	var sumStatic, sumSwitched float64
	for _, city := range cities {
		static, switched := runCity(reg, engine, eventRule.UUID, regularRule.UUID, city, start)
		sumStatic += static
		sumSwitched += switched
		fmt.Printf("%-16s static MAPE %.2f%%  switched MAPE %.2f%%  improvement %.1f%%\n",
			city.Name, static, switched, 100*(static-switched)/static)
	}
	n := float64(len(cities))
	fmt.Printf("\noverall: static %.2f%% -> switched %.2f%% (%.1f%% MAPE improvement; paper reports >10%%)\n",
		sumStatic/n, sumSwitched/n, 100*(sumStatic-sumSwitched)/sumStatic)
}

// runCity trains both model classes for one city, registers them in
// Gallery, and serves the test window twice: statically (one fixed model
// without event features, the paper's baseline) and dynamically (the rule
// engine serves the event champion during events and the regular champion
// otherwise). Returns the two MAPEs.
func runCity(reg *core.Registry, engine *rules.Engine, eventRuleID, regularRuleID string, city forecast.CityConfig, start time.Time) (staticMAPE, switchedMAPE float64) {
	data := forecast.Generate(city, start, time.Hour, (trainDays+testDays)*hoursPerDay)
	trainN := trainDays * hoursPerDay
	values := data.Values()
	eventFlags := make([]bool, len(data))
	for i, p := range data {
		eventFlags[i] = p.Event
	}

	m, err := reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "demand_" + city.Name,
		Project:       "marketplace-forecasting",
		Name:          "demand_forecaster",
		Domain:        "UberX",
	})
	if err != nil {
		log.Fatal(err)
	}

	type candidate struct {
		model    forecast.Model
		instance *core.Instance
	}
	var candidates []candidate
	for _, fm := range []forecast.Model{
		&forecast.LinearAR{Lags: 24, Horizon: horizon},
		&forecast.LinearAR{Lags: 24, Horizon: horizon, UseEventFeature: true},
	} {
		if err := fm.Train(data[:trainN]); err != nil {
			log.Fatal(err)
		}
		blob, err := forecast.Encode(fm)
		if err != nil {
			log.Fatal(err)
		}
		in, err := reg.UploadInstance(core.InstanceSpec{
			ModelID: m.ID, Name: fm.Name(), City: city.Name, Framework: "gallery-forecast",
			TrainingData: "synthetic://" + city.Name,
		}, blob)
		if err != nil {
			log.Fatal(err)
		}
		candidates = append(candidates, candidate{model: fm, instance: in})
	}

	byID := make(map[uuid.UUID]forecast.Model, len(candidates))
	for _, c := range candidates {
		byID[c.instance.ID] = c.model
	}

	// forecastAt returns model m's prediction for hour i, made horizon
	// hours earlier (history is truncated accordingly).
	forecastAt := func(mdl forecast.Model, i int) float64 {
		cut := i - horizon + 1
		return mdl.Forecast(forecast.Context{
			History:       values[:cut],
			HistoryEvents: eventFlags[:cut],
			Time:          data[i].T,
			Event:         data[i].Event,
		})
	}

	// reportSplitMetrics measures each candidate over [from, to) split by
	// event/regular hours and stores the MAPEs in Gallery — the
	// production monitoring feed of §3.6.
	reportSplitMetrics := func(from, to int) {
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
			if len(ae) > 0 {
				if met, err := forecast.Evaluate(pe, ae); err == nil {
					if _, err := reg.InsertMetric(context.Background(), c.instance.ID, "mape_event", core.ScopeProduction, met.MAPE); err != nil {
						log.Fatal(err)
					}
				}
			}
			if len(ar) > 0 {
				if met, err := forecast.Evaluate(pr, ar); err == nil {
					if _, err := reg.InsertMetric(context.Background(), c.instance.ID, "mape_regular", core.ScopeProduction, met.MAPE); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	}
	// Warm-up: the last training week provides the initial split metrics.
	reportSplitMetrics(trainN-7*hoursPerDay, trainN)

	serve := func(pick func(i int) forecast.Model) float64 {
		var preds, actuals []float64
		for day := 0; day < testDays; day++ {
			from := trainN + day*hoursPerDay
			for i := from; i < from+hoursPerDay; i++ {
				preds = append(preds, forecastAt(pick(i), i))
				actuals = append(actuals, values[i])
			}
			// Nightly monitoring refresh.
			reportSplitMetrics(from, from+hoursPerDay)
		}
		met, err := forecast.Evaluate(preds, actuals)
		if err != nil {
			log.Fatal(err)
		}
		return met.MAPE
	}

	// Static baseline: one fixed model without event features (§4.2).
	staticModel := candidates[0].model
	staticMAPE = serve(func(int) forecast.Model { return staticModel })

	// Dynamic switching: the serving system queries Gallery's rule engine
	// for the appropriate champion for the duration of each event.
	champion := func(ruleID string) forecast.Model {
		in, err := engine.SelectModel(ruleID, core.InstanceFilter{City: city.Name})
		if err != nil {
			log.Fatal(err)
		}
		return byID[in.ID]
	}
	switchedMAPE = serve(func(i int) forecast.Model {
		if data[i].Event {
			return champion(eventRuleID)
		}
		return champion(regularRuleID)
	})
	return staticMAPE, switchedMAPE
}
