package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/rules"
)

// Experiment E16 (extension) — paper §4.2's premise, made measurable:
// "Each city faces different market dynamics, and classes of models
// perform differently based on certain spatial or temporal
// characteristics of the city. Therefore, the team needs ... a systematic
// way to determine which model class to serve at a given time."
//
// The experiment trains every model class for a set of heterogeneous
// cities, stores all instances and validation metrics in Gallery, and
// lets one selection rule pick each city's champion. The reproduced shape:
// no single class wins everywhere, which is exactly why per-city champion
// selection (rather than a global model choice) pays.

// ClassCityResult is one city's championship outcome.
type ClassCityResult struct {
	City     string
	Profile  string
	Champion string
	// MAPEByClass is each class's held-out test MAPE.
	MAPEByClass map[string]float64
}

// ClassResult is the sweep outcome.
type ClassResult struct {
	Cities []ClassCityResult
	// DistinctChampions counts how many different classes won somewhere.
	DistinctChampions int
}

const classHorizon = 6

// classCities builds cities with deliberately different temporal character.
func classCities() []struct {
	cfg     forecast.CityConfig
	profile string
} {
	return []struct {
		cfg     forecast.CityConfig
		profile string
	}{
		{forecast.CityConfig{Name: "smoothia", Base: 800, DailyAmp: 300, WeeklyAmp: 80,
			NoiseStd: 15, Seed: 61}, "smooth sinusoidal seasonality"},
		{forecast.CityConfig{Name: "rushford", Base: 600, DailyAmp: 40, RushAmp: 400,
			NoiseStd: 20, Seed: 62}, "sharp commute rush hours"},
		{forecast.CityConfig{Name: "rushport", Base: 400, DailyAmp: 30, RushAmp: 250,
			WeeklyAmp: 30, NoiseStd: 15, Seed: 63}, "rush hours + weekly swing"},
		{forecast.CityConfig{Name: "noiseburg", Base: 500, DailyAmp: 15, WeeklyAmp: 5,
			NoiseStd: 120, Seed: 64}, "dominated by noise"},
		{forecast.CityConfig{Name: "steadyton", Base: 900, DailyAmp: 250, WeeklyAmp: 60,
			GrowthPerWeek: 25, NoiseStd: 10, Seed: 65}, "smooth + strong growth"},
		{forecast.CityConfig{Name: "jitterville", Base: 450, DailyAmp: 20, WeeklyAmp: 10,
			NoiseStd: 90, Seed: 66}, "noisy, weak structure"},
	}
}

// classRoster returns fresh instances of every model class.
func classRoster() []forecast.Model {
	return []forecast.Model{
		&forecast.Heuristic{K: 24},
		&forecast.SeasonalNaive{Period: 24 * 7},
		&forecast.LinearAR{Lags: 24, Horizon: classHorizon},
		&forecast.GBStumps{Lags: 12, Horizon: classHorizon, Rounds: 200},
	}
}

// ModelClassChampionship runs the sweep.
func ModelClassChampionship() (*ClassResult, error) {
	env := mustEnv(16)
	rule := &rules.Rule{
		UUID: "class-champion", Team: "forecasting", Kind: rules.KindSelection,
		When:           `has(metrics, "mape")`,
		ModelSelection: "a.metrics.mape < b.metrics.mape",
	}
	if _, err := env.Repo.Commit("forecasting", "class champion", []*rules.Rule{rule}, nil); err != nil {
		return nil, err
	}

	const trainDays, testDays = 42, 14
	res := &ClassResult{}
	champions := map[string]bool{}
	for _, c := range classCities() {
		data := forecast.Generate(c.cfg, epoch, time.Hour, (trainDays+testDays)*24)
		trainN := trainDays * 24
		values := data.Values()

		m, err := env.Reg.RegisterModel(core.ModelSpec{
			BaseVersionID: "class_" + c.cfg.Name, Project: "class-championship",
			Name: "demand_forecaster", Domain: "UberX",
		})
		if err != nil {
			return nil, err
		}

		cr := ClassCityResult{City: c.cfg.Name, Profile: c.profile, MAPEByClass: map[string]float64{}}
		nameByID := map[string]string{}
		for _, fm := range classRoster() {
			if err := fm.Train(data[:trainN]); err != nil {
				return nil, err
			}
			blob, err := forecast.Encode(fm)
			if err != nil {
				return nil, err
			}
			env.Clock.Advance(time.Minute)
			in, err := env.Reg.UploadInstance(core.InstanceSpec{
				ModelID: m.ID, Name: fm.Name(), City: c.cfg.Name, Framework: "gallery-forecast",
			}, blob)
			if err != nil {
				return nil, err
			}
			// Held-out test MAPE at the serving horizon, reported to
			// Gallery as the validation metric the rule selects on.
			var preds, actuals []float64
			for i := trainN; i < len(data); i++ {
				cut := i - classHorizon + 1
				preds = append(preds, fm.Forecast(forecast.Context{
					History: values[:cut], Time: data[i].T,
				}))
				actuals = append(actuals, values[i])
			}
			met, err := forecast.Evaluate(preds, actuals)
			if err != nil {
				return nil, err
			}
			cr.MAPEByClass[fm.Name()] = met.MAPE
			if _, err := env.Reg.InsertMetric(context.Background(), in.ID, "mape", core.ScopeValidation, met.MAPE); err != nil {
				return nil, err
			}
			nameByID[in.ID.String()] = fm.Name()
		}

		champ, err := env.Engine.SelectModel("class-champion", core.InstanceFilter{City: c.cfg.Name})
		if err != nil {
			return nil, err
		}
		cr.Champion = nameByID[champ.ID.String()]
		champions[className(cr.Champion)] = true
		res.Cities = append(res.Cities, cr)
	}
	res.DistinctChampions = len(champions)
	return res, nil
}

// className collapses parameterized model names to their class.
func className(name string) string {
	for _, prefix := range []string{"heuristic", "seasonal_naive", "linear_ar", "gb_stumps", "ewma"} {
		if strings.HasPrefix(name, prefix) {
			return prefix
		}
	}
	return name
}

// Format renders the championship table.
func (r *ClassResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-30s %-24s %s\n", "city", "profile", "champion (by rule)", "per-class test MAPE")
	for _, c := range r.Cities {
		var parts []string
		for _, fm := range classRoster() {
			parts = append(parts, fmt.Sprintf("%s=%.1f", className(fm.Name()), c.MAPEByClass[fm.Name()]))
		}
		fmt.Fprintf(&b, "%-12s %-30s %-24s %s\n", c.City, c.Profile, c.Champion, strings.Join(parts, " "))
	}
	fmt.Fprintf(&b, "distinct champion classes across cities: %d (paper §4.2: classes perform differently per city)\n",
		r.DistinctChampions)
	return b.String()
}
