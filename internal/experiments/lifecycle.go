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

// Experiment E2 — paper Figure 1: the model lifecycle, driven end to end
// by Gallery: exploration → training → evaluation → deployment →
// monitoring → drift detection → retraining → deprecation. The same run
// also provides Experiment E11's quantitative drift-retrain numbers:
// production MAPE before the distribution shift, during it, and after the
// rule-engine-triggered retrain.

// LifecycleResult records every lifecycle stage and the drift numbers.
type LifecycleResult struct {
	Stages []string

	// Champion selection during exploration.
	ExploredModels int
	ChampionName   string

	// Deployment via action rule.
	DeployedInstance uuid.UUID

	// Drift loop numbers (E11).
	PreShiftMAPE  float64
	DriftedMAPE   float64
	RecoveredMAPE float64
	Drift         *core.DriftReport

	// RetrainTriggered reports the rule-engine retrain callback fired.
	RetrainTriggered bool
	// OldDeprecated reports the superseded instance was flagged.
	OldDeprecated bool
}

const (
	lcTrainDays   = 42
	lcPhaseDays   = 10 // monitoring days per phase
	lcHoursPerDay = 24
)

// Lifecycle runs the full Figure 1 loop on a demand series with an
// injected regime shift.
func Lifecycle() (*LifecycleResult, error) {
	ctx := context.Background()
	env := mustEnv(2)
	res := &LifecycleResult{}
	stage := func(format string, args ...any) {
		res.Stages = append(res.Stages, fmt.Sprintf(format, args...))
	}

	// The world: demand that permanently doubles partway through the
	// monitoring period (Uber's growth; paper §3.6 Model Drift).
	shiftAt := epoch.Add(time.Duration(lcTrainDays+lcPhaseDays) * 24 * time.Hour)
	city := forecast.CityConfig{
		Name: "lifecycle_city", Base: 600, DailyAmp: 180, WeeklyAmp: 60, NoiseStd: 25,
		ShiftAt: shiftAt, ShiftFactor: 1.6, Seed: 21,
	}
	totalDays := lcTrainDays + 3*lcPhaseDays
	data := forecast.Generate(city, epoch, time.Hour, totalDays*lcHoursPerDay)
	trainN := lcTrainDays * lcHoursPerDay

	// --- Stage 1: model exploration ---
	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "lifecycle_demand", Project: "marketplace",
		Name: "demand_forecaster", Domain: "UberX", Owner: "forecasting",
	})
	if err != nil {
		return nil, err
	}
	explored := []forecast.Model{
		&forecast.Heuristic{K: 5},
		&forecast.SeasonalNaive{Period: 24},
		&forecast.LinearAR{Lags: 24},
	}
	type cand struct {
		model forecast.Model
		inst  *core.Instance
	}
	var candidates []cand
	for _, fm := range explored {
		if err := fm.Train(data[:trainN]); err != nil {
			return nil, err
		}
		blob, err := forecast.Encode(fm)
		if err != nil {
			return nil, err
		}
		env.Clock.Advance(time.Minute)
		in, err := env.Reg.UploadInstance(core.InstanceSpec{
			ModelID: m.ID, Name: fm.Name(), City: city.Name, Framework: "gallery-forecast",
			TrainingData: "synthetic://lifecycle/v1", CodePointer: "internal/experiments",
		}, blob)
		if err != nil {
			return nil, err
		}
		valMAPE, err := forecast.RollingMAPE(fm, data, trainN-7*lcHoursPerDay, trainN)
		if err != nil {
			return nil, err
		}
		if err := env.Reg.InsertMetrics(in.ID, core.ScopeValidation, map[string]float64{"mape": valMAPE}); err != nil {
			return nil, err
		}
		candidates = append(candidates, cand{model: fm, inst: in})
	}
	res.ExploredModels = len(candidates)
	stage("exploration: trained and stored %d candidate model classes with validation metrics", len(candidates))

	// --- Stage 2: evaluation + champion selection via rule ---
	selRule := &rules.Rule{
		UUID: "lifecycle-select", Team: "forecasting", Kind: rules.KindSelection,
		When:           `has(metrics, "mape")`,
		ModelSelection: "a.metrics.mape < b.metrics.mape",
	}
	deployRule := &rules.Rule{
		UUID: "lifecycle-deploy", Team: "forecasting", Kind: rules.KindAction,
		When:    "metrics.mape < 10",
		Actions: []rules.ActionRef{{Action: "deploy"}},
	}
	retrainRule := &rules.Rule{
		UUID: "lifecycle-retrain", Team: "forecasting", Kind: rules.KindAction,
		When:    "metrics.drift_degradation > 0.25",
		Actions: []rules.ActionRef{{Action: "retrain"}, {Action: "alert", Params: map[string]any{"message": "model drift detected"}}},
	}
	if _, err := env.Repo.Commit("forecasting", "lifecycle rules",
		[]*rules.Rule{selRule, deployRule, retrainRule}, nil); err != nil {
		return nil, err
	}

	var deployed []uuid.UUID
	env.Engine.RegisterAction("deploy", func(ctx *rules.ActionContext) error {
		deployed = append(deployed, ctx.Instance.ID)
		return nil
	})
	retrainRequested := false
	env.Engine.RegisterAction("retrain", func(ctx *rules.ActionContext) error {
		retrainRequested = true
		return nil
	})

	champ, err := env.Engine.SelectModel("lifecycle-select", core.InstanceFilter{City: city.Name})
	if err != nil {
		return nil, err
	}
	res.ChampionName = champ.Name
	stage("evaluation: selection rule picked champion %q by validation MAPE", champ.Name)

	var champModel forecast.Model
	for _, c := range candidates {
		if c.inst.ID == champ.ID {
			champModel = c.model
		}
	}

	// --- Stage 3: deployment through the action rule ---
	// Re-reporting the champion's validation metric is the event that
	// drives the deploy rule (Fig. 8 Client 2 pattern).
	env.Clock.Advance(time.Minute)
	vals, err := env.Reg.LatestMetrics(champ.ID, core.ScopeValidation)
	if err != nil {
		return nil, err
	}
	if _, err := env.Reg.InsertMetric(ctx, champ.ID, "mape", core.ScopeValidation, vals["mape"]); err != nil {
		return nil, err
	}
	env.Engine.MetricUpdatedCtx(ctx, champ.ID)
	if len(deployed) != 1 || deployed[0] != champ.ID {
		return nil, fmt.Errorf("lifecycle: deployment rule did not fire for the champion")
	}
	res.DeployedInstance = champ.ID
	stage("deployment: action rule deployed %q to production", champ.Name)

	// --- Stage 4: monitoring, phase 1 (stable) ---
	monitorDay := func(mdl forecast.Model, inst uuid.UUID, day int) (float64, error) {
		from := (lcTrainDays + day) * lcHoursPerDay
		mape, err := forecast.RollingMAPE(mdl, data, from, from+lcHoursPerDay)
		if err != nil {
			return 0, err
		}
		env.Clock.Advance(24 * time.Hour)
		_, err = env.Reg.InsertMetric(ctx, inst, "mape", core.ScopeProduction, mape)
		return mape, err
	}
	var phase1 float64
	for day := 0; day < lcPhaseDays; day++ {
		mape, err := monitorDay(champModel, champ.ID, day)
		if err != nil {
			return nil, err
		}
		phase1 += mape
	}
	res.PreShiftMAPE = phase1 / lcPhaseDays
	stage("monitoring: %d stable days, mean production MAPE %.2f%%", lcPhaseDays, res.PreShiftMAPE)

	// --- Stage 5: drift (regime shift) ---
	var phase2 float64
	for day := lcPhaseDays; day < 2*lcPhaseDays; day++ {
		mape, err := monitorDay(champModel, champ.ID, day)
		if err != nil {
			return nil, err
		}
		phase2 += mape
	}
	res.DriftedMAPE = phase2 / lcPhaseDays

	drift, err := env.Reg.CheckDrift(champ.ID, core.DriftConfig{Metric: "mape", Window: lcPhaseDays, Baseline: lcPhaseDays})
	if err != nil {
		return nil, err
	}
	res.Drift = drift
	if !drift.Drifted {
		return nil, fmt.Errorf("lifecycle: drift not detected (degradation %.2f)", drift.Degradation)
	}
	stage("drift: production MAPE degraded %.2f%% -> %.2f%% (degradation %.0f%%), detector fired",
		res.PreShiftMAPE, res.DriftedMAPE, drift.Degradation*100)

	// The health check result is itself a metric; reporting it triggers
	// the retrain rule.
	env.Clock.Advance(time.Minute)
	if _, err := env.Reg.InsertMetric(ctx, champ.ID, "drift_degradation", core.ScopeProduction, drift.Degradation); err != nil {
		return nil, err
	}
	env.Engine.MetricUpdatedCtx(ctx, champ.ID)
	res.RetrainTriggered = retrainRequested
	if !retrainRequested {
		return nil, fmt.Errorf("lifecycle: retrain rule did not fire")
	}
	stage("retraining: rule engine triggered the retrain callback and an alert")

	// --- Stage 6: retrain on recent data, deploy, deprecate the old ---
	retrainEnd := (lcTrainDays + 2*lcPhaseDays) * lcHoursPerDay
	fresh := &forecast.LinearAR{Lags: 24}
	if err := fresh.Train(data[retrainEnd-trainN : retrainEnd]); err != nil {
		return nil, err
	}
	blob, err := forecast.Encode(fresh)
	if err != nil {
		return nil, err
	}
	env.Clock.Advance(time.Minute)
	freshIn, err := env.Reg.UploadInstance(core.InstanceSpec{
		ModelID: m.ID, Name: fresh.Name() + "_v2", City: city.Name,
		Framework: "gallery-forecast", TrainingData: "synthetic://lifecycle/v2",
	}, blob)
	if err != nil {
		return nil, err
	}
	if _, err := env.Reg.InsertMetric(ctx, freshIn.ID, "mape", core.ScopeValidation, 5); err != nil {
		return nil, err
	}
	env.Engine.MetricUpdatedCtx(ctx, freshIn.ID)
	if len(deployed) != 2 || deployed[1] != freshIn.ID {
		return nil, fmt.Errorf("lifecycle: retrained instance was not deployed")
	}
	if err := env.Reg.DeprecateInstance(ctx, champ.ID); err != nil {
		return nil, err
	}
	res.OldDeprecated = true
	stage("deployment: retrained instance deployed; old instance deprecated (still fetchable)")

	// --- Stage 7: monitoring, phase 3 (recovered) ---
	var phase3 float64
	for day := 2 * lcPhaseDays; day < 3*lcPhaseDays; day++ {
		mape, err := monitorDay(fresh, freshIn.ID, day)
		if err != nil {
			return nil, err
		}
		phase3 += mape
	}
	res.RecoveredMAPE = phase3 / lcPhaseDays
	stage("monitoring: recovered, mean production MAPE %.2f%% (was %.2f%% drifted)",
		res.RecoveredMAPE, res.DriftedMAPE)

	return res, nil
}

// Format renders the lifecycle stages.
func (r *LifecycleResult) Format() string {
	var b strings.Builder
	for i, s := range r.Stages {
		fmt.Fprintf(&b, "%d. %s\n", i+1, s)
	}
	fmt.Fprintf(&b, "drift loop (E11): pre-shift %.2f%%, drifted %.2f%%, recovered %.2f%%\n",
		r.PreShiftMAPE, r.DriftedMAPE, r.RecoveredMAPE)
	return b.String()
}
