package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gallery/internal/core"
	"gallery/internal/forecast"
)

// Experiment E12 — paper §3.6 Production Skew: "the difference between
// performance at training time and serving time", caused by serving bugs
// or train/serve data discrepancies. The experiment trains a model,
// records its honest validation MAPE, then serves it through a buggy
// serving path that scales its inputs (a classic feature-pipeline
// mismatch) and records production MAPE. Gallery's skew check must fire on
// the buggy deployment and stay quiet on the healthy one.

// SkewResult holds both arms.
type SkewResult struct {
	Healthy *core.SkewReport
	Buggy   *core.SkewReport
	// ValidationMAPE / HealthyMAPE / BuggyMAPE are the raw numbers.
	ValidationMAPE float64
	HealthyMAPE    float64
	BuggyMAPE      float64
}

// SkewDetection runs the experiment.
func SkewDetection() (*SkewResult, error) {
	env := mustEnv(12)
	city := forecast.CityConfig{
		Name: "skew_city", Base: 500, DailyAmp: 150, WeeklyAmp: 50, NoiseStd: 20, Seed: 12,
	}
	data := forecast.Generate(city, epoch, time.Hour, 60*24)
	trainN := 45 * 24
	values := data.Values()

	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "skew_demand", Project: "marketplace", Name: "forecaster",
	})
	if err != nil {
		return nil, err
	}
	fm := &forecast.LinearAR{Lags: 24}
	if err := fm.Train(data[:trainN]); err != nil {
		return nil, err
	}
	blob, err := forecast.Encode(fm)
	if err != nil {
		return nil, err
	}

	res := &SkewResult{}
	serveMAPE := func(timeBug time.Duration) (float64, error) {
		var preds, actuals []float64
		for i := trainN; i < len(data); i++ {
			// The buggy serving path feeds the model a wrong wall-clock
			// time — the classic timezone mismatch between the training
			// pipeline and the serving service.
			preds = append(preds, fm.Forecast(forecast.Context{
				History: values[:i],
				Time:    data[i].T.Add(timeBug),
			}))
			actuals = append(actuals, values[i])
		}
		met, err := forecast.Evaluate(preds, actuals)
		if err != nil {
			return 0, err
		}
		return met.MAPE, nil
	}

	valMAPE, err := forecast.RollingMAPE(fm, data, trainN-7*24, trainN)
	if err != nil {
		return nil, err
	}
	res.ValidationMAPE = valMAPE

	for _, arm := range []struct {
		bug  time.Duration
		out  **core.SkewReport
		mape *float64
	}{
		{0, &res.Healthy, &res.HealthyMAPE},
		{6 * time.Hour, &res.Buggy, &res.BuggyMAPE}, // timezone-offset serving bug
	} {
		env.Clock.Advance(time.Minute)
		in, err := env.Reg.UploadInstance(core.InstanceSpec{
			ModelID: m.ID, Name: fmt.Sprintf("deploy-bug-%v", arm.bug), City: city.Name,
		}, blob)
		if err != nil {
			return nil, err
		}
		if _, err := env.Reg.InsertMetric(context.Background(), in.ID, "mape", core.ScopeValidation, valMAPE); err != nil {
			return nil, err
		}
		prodMAPE, err := serveMAPE(arm.bug)
		if err != nil {
			return nil, err
		}
		*arm.mape = prodMAPE
		env.Clock.Advance(time.Minute)
		if _, err := env.Reg.InsertMetric(context.Background(), in.ID, "mape", core.ScopeProduction, prodMAPE); err != nil {
			return nil, err
		}
		rep, err := env.Reg.CheckSkew(in.ID, core.SkewConfig{Metric: "mape", Threshold: 0.5})
		if err != nil {
			return nil, err
		}
		*arm.out = rep
	}
	return res, nil
}

// Format renders both arms.
func (r *SkewResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "validation MAPE: %.2f%%\n", r.ValidationMAPE)
	fmt.Fprintf(&b, "%-22s %-18s %-10s %s\n", "deployment", "production MAPE", "gap", "skew detected")
	fmt.Fprintf(&b, "%-22s %-18.2f %-10.2f %v\n", "healthy serving path", r.HealthyMAPE, r.Healthy.Gap, r.Healthy.Skewed)
	fmt.Fprintf(&b, "%-22s %-18.2f %-10.2f %v\n", "buggy (tz offset 6h)", r.BuggyMAPE, r.Buggy.Gap, r.Buggy.Skewed)
	return b.String()
}

// Experiment E15 — paper §6.3 Tiered Service Offering: the four feature
// groups are usable independently, so a team can onboard with just blob
// storage and add tiers as it matures.

// TierReport is the outcome of exercising one tier in isolation (plus the
// tiers below it, which it builds on).
type TierReport struct {
	Tier int
	Name string
	OK   bool
	Err  string
}

// TieredOnboarding exercises each tier as a fresh team would.
func TieredOnboarding() ([]TierReport, error) {
	reports := make([]TierReport, 0, 4)
	add := func(tier int, name string, err error) {
		r := TierReport{Tier: tier, Name: name, OK: err == nil}
		if err != nil {
			r.Err = err.Error()
		}
		reports = append(reports, r)
	}

	// Tier 1: model storage and retrieval only.
	add(1, "model storage and retrieval", func() error {
		env := mustEnv(151)
		m, err := env.Reg.RegisterModel(core.ModelSpec{BaseVersionID: "t1"})
		if err != nil {
			return err
		}
		in, err := env.Reg.UploadInstance(core.InstanceSpec{ModelID: m.ID}, []byte("blob"))
		if err != nil {
			return err
		}
		got, err := env.Reg.FetchBlob(context.Background(), in.ID)
		if err != nil {
			return err
		}
		if string(got) != "blob" {
			return fmt.Errorf("blob mismatch")
		}
		return nil
	}())

	// Tier 2: metadata storage and search.
	add(2, "metadata storage and search", func() error {
		env := mustEnv(152)
		m, err := env.Reg.RegisterModel(core.ModelSpec{BaseVersionID: "t2", Project: "p"})
		if err != nil {
			return err
		}
		if _, err := env.Reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, City: "sf"}, []byte("b")); err != nil {
			return err
		}
		found, err := env.Reg.SearchInstances(core.InstanceFilter{City: "sf"})
		if err != nil {
			return err
		}
		if len(found) != 1 {
			return fmt.Errorf("search found %d", len(found))
		}
		return nil
	}())

	// Tier 3: metric storage and search.
	add(3, "metric storage and search", func() error {
		env := mustEnv(153)
		m, err := env.Reg.RegisterModel(core.ModelSpec{BaseVersionID: "t3"})
		if err != nil {
			return err
		}
		in, err := env.Reg.UploadInstance(core.InstanceSpec{ModelID: m.ID}, []byte("b"))
		if err != nil {
			return err
		}
		if _, err := env.Reg.InsertMetric(context.Background(), in.ID, "auc", core.ScopeValidation, 0.91); err != nil {
			return err
		}
		vals, err := env.Reg.LatestMetrics(in.ID, core.ScopeValidation)
		if err != nil {
			return err
		}
		if vals["auc"] != 0.91 {
			return fmt.Errorf("metric round trip failed")
		}
		return nil
	}())

	// Tier 4: rule engine automation.
	add(4, "rule engine automation", func() error {
		res, err := RuleEngineFigure8()
		if err != nil {
			return err
		}
		if len(res.Deployments) != 1 {
			return fmt.Errorf("automation did not deploy")
		}
		return nil
	}())

	return reports, nil
}

// FormatTiers renders the onboarding matrix.
func FormatTiers(rs []TierReport) string {
	var b strings.Builder
	for _, r := range rs {
		status := "ok"
		if !r.OK {
			status = "FAILED: " + r.Err
		}
		fmt.Fprintf(&b, "tier %d (%s): %s\n", r.Tier, r.Name, status)
	}
	b.WriteString("each tier usable with only the tiers below it (paper §6.3)\n")
	return b.String()
}
