package core

import (
	"context"
	"fmt"
	"math"

	"gallery/internal/uuid"
)

// This file implements Model Performance and Health (paper §3.6): the two
// metric categories Gallery defines — information completeness and
// cross-stage performance — and the two derived insights it highlights,
// model drift and production skew.

// CompletenessReport scores how reproducible an instance is from its
// stored metadata (paper §3.6 category one, §6.2 lessons on
// reproducibility).
type CompletenessReport struct {
	InstanceID uuid.UUID
	// Present lists reproducibility fields that are filled in.
	Present []string
	// Missing lists fields a production model should carry but doesn't.
	Missing []string
	// Score is len(Present) / (len(Present)+len(Missing)).
	Score float64
	// HasMetrics reports whether any performance metric was ever stored,
	// the other half of information completeness.
	HasMetrics bool
}

// Completeness audits an instance's reproducibility metadata.
func (g *Registry) Completeness(instanceID uuid.UUID) (*CompletenessReport, error) {
	in, err := g.GetInstance(context.Background(), instanceID)
	if err != nil {
		return nil, err
	}
	fields := []struct {
		name string
		ok   bool
	}{
		{"training_data", in.TrainingData != ""},
		{"framework", in.Framework != ""},
		{"code_pointer", in.CodePointer != ""},
		{"hyperparams", in.Hyperparams != ""},
		{"features", in.Features != ""},
		{"seed", in.Seed != 0},
		{"blob_location", in.BlobLocation != ""},
	}
	rep := &CompletenessReport{InstanceID: instanceID}
	for _, f := range fields {
		if f.ok {
			rep.Present = append(rep.Present, f.name)
		} else {
			rep.Missing = append(rep.Missing, f.name)
		}
	}
	rep.Score = float64(len(rep.Present)) / float64(len(fields))
	for _, scope := range []Scope{ScopeTraining, ScopeValidation, ScopeProduction} {
		vals, err := g.LatestMetrics(instanceID, scope)
		if err != nil {
			return nil, err
		}
		if len(vals) > 0 {
			rep.HasMetrics = true
			break
		}
	}
	return rep, nil
}

// DriftConfig tunes the drift detector. The detector compares the mean of
// the most recent Window production measurements of an error metric
// against the mean of the Baseline measurements before them; drift is
// declared when the recent mean exceeds the baseline mean by more than
// Threshold (relative).
type DriftConfig struct {
	Metric    string  // error metric to watch, e.g. "mape"
	Window    int     // recent window size (default 10)
	Baseline  int     // baseline window size (default 30)
	Threshold float64 // relative degradation, e.g. 0.25 = 25% worse (default 0.25)
}

func (c *DriftConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 10
	}
	if c.Baseline <= 0 {
		c.Baseline = 30
	}
	if c.Threshold == 0 {
		c.Threshold = 0.25
	}
}

// DriftReport is the outcome of a drift check.
type DriftReport struct {
	InstanceID   uuid.UUID
	Metric       string
	BaselineMean float64
	RecentMean   float64
	// Degradation is (RecentMean - BaselineMean) / |BaselineMean|.
	Degradation float64
	Drifted     bool
	// Checked is false when there was not enough history to judge, so
	// callers can tell "no drift" apart from "no verdict" (mirrors
	// SkewReport.Checked).
	Checked bool
	// Samples is how many production measurements were available.
	Samples int
}

// CheckDrift evaluates the drift insight for one instance (paper §3.6):
// has the production error metric degraded materially versus its own
// history? A positive result is what triggers retraining through the rule
// engine.
func (g *Registry) CheckDrift(instanceID uuid.UUID, cfg DriftConfig) (*DriftReport, error) {
	if cfg.Metric == "" {
		return nil, fmt.Errorf("%w: drift check needs a metric name", ErrBadSpec)
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("%w: drift threshold must not be negative, got %g",
			ErrBadSpec, cfg.Threshold)
	}
	cfg.defaults()
	series, err := g.MetricSeries(instanceID, cfg.Metric, ScopeProduction)
	if err != nil {
		return nil, err
	}
	rep := &DriftReport{InstanceID: instanceID, Metric: cfg.Metric, Samples: len(series)}
	if len(series) < cfg.Window+2 {
		return rep, nil // not enough history to judge; Checked stays false
	}
	rep.Checked = true
	split := len(series) - cfg.Window
	baseStart := split - cfg.Baseline
	if baseStart < 0 {
		baseStart = 0
	}
	rep.BaselineMean = meanOf(series[baseStart:split])
	rep.RecentMean = meanOf(series[split:])
	denom := math.Abs(rep.BaselineMean)
	if denom < 1e-12 {
		denom = 1e-12
	}
	rep.Degradation = (rep.RecentMean - rep.BaselineMean) / denom
	rep.Drifted = rep.Degradation > cfg.Threshold
	return rep, nil
}

// SkewConfig tunes production-skew detection: the relative gap between an
// instance's offline (validation, falling back to training) metric and its
// live production metric.
type SkewConfig struct {
	Metric    string
	Threshold float64 // relative gap, default 0.2
}

// SkewReport is the outcome of a skew check.
type SkewReport struct {
	InstanceID   uuid.UUID
	Metric       string
	OfflineScope Scope
	Offline      float64
	Production   float64
	// Gap is (Production - Offline) / |Offline|.
	Gap     float64
	Skewed  bool
	Checked bool // false when either side has no measurement
}

// CheckSkew evaluates production skew (paper §3.6): the difference between
// performance at training time and serving time, which flags serving bugs
// and train/serve data discrepancies.
func (g *Registry) CheckSkew(instanceID uuid.UUID, cfg SkewConfig) (*SkewReport, error) {
	if cfg.Metric == "" {
		return nil, fmt.Errorf("%w: skew check needs a metric name", ErrBadSpec)
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("%w: skew threshold must not be negative, got %g",
			ErrBadSpec, cfg.Threshold)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.2
	}
	rep := &SkewReport{InstanceID: instanceID, Metric: cfg.Metric}

	offline, scope, ok, err := g.offlineMetric(instanceID, cfg.Metric)
	if err != nil {
		return nil, err
	}
	if !ok {
		return rep, nil
	}
	prod, err := g.LatestMetrics(instanceID, ScopeProduction)
	if err != nil {
		return nil, err
	}
	pv, ok := prod[cfg.Metric]
	if !ok {
		return rep, nil
	}
	rep.Checked = true
	rep.OfflineScope = scope
	rep.Offline = offline
	rep.Production = pv
	denom := math.Abs(offline)
	if denom < 1e-12 {
		denom = 1e-12
	}
	rep.Gap = (pv - offline) / denom
	rep.Skewed = math.Abs(rep.Gap) > cfg.Threshold
	return rep, nil
}

func (g *Registry) offlineMetric(instanceID uuid.UUID, name string) (float64, Scope, bool, error) {
	for _, scope := range []Scope{ScopeValidation, ScopeTraining} {
		vals, err := g.LatestMetrics(instanceID, scope)
		if err != nil {
			return 0, "", false, err
		}
		if v, ok := vals[name]; ok {
			return v, scope, true, nil
		}
	}
	return 0, "", false, nil
}

func meanOf(ms []*Metric) float64 {
	if len(ms) == 0 {
		return 0
	}
	var sum float64
	for _, m := range ms {
		sum += m.Value
	}
	return sum / float64(len(ms))
}
