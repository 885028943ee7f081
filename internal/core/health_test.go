package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestCompletenessFullMetadata(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x")) // harness fills all repro fields
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeValidation, 5); err != nil {
		t.Fatal(err)
	}
	rep, err := h.g.Completeness(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score != 1.0 || len(rep.Missing) != 0 || !rep.HasMetrics {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCompletenessSparseMetadata(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in, err := h.g.UploadInstance(InstanceSpec{ModelID: m.ID, Name: "bare"}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.g.Completeness(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Only blob_location is present.
	if len(rep.Present) != 1 || rep.Present[0] != "blob_location" {
		t.Fatalf("present = %v", rep.Present)
	}
	if rep.Score >= 0.5 || rep.HasMetrics {
		t.Fatalf("report = %+v", rep)
	}
}

// driftSeries reports a production MAPE series: base for n1 points, then
// shifted for n2 points.
func driftSeries(t *testing.T, h *harness, in *Instance, base float64, n1 int, shifted float64, n2 int) {
	t.Helper()
	for i := 0; i < n1; i++ {
		h.clk.Advance(time.Minute)
		if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeProduction, base); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n2; i++ {
		h.clk.Advance(time.Minute)
		if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeProduction, shifted); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDriftDetected(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	driftSeries(t, h, in, 8.0, 30, 14.0, 10) // 75% degradation

	rep, err := h.g.CheckDrift(in.ID, DriftConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drifted {
		t.Fatalf("drift not detected: %+v", rep)
	}
	if rep.BaselineMean != 8.0 || rep.RecentMean != 14.0 {
		t.Fatalf("means = %v / %v", rep.BaselineMean, rep.RecentMean)
	}
}

func TestNoDriftOnStableSeries(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	driftSeries(t, h, in, 8.0, 30, 8.4, 10) // 5% wiggle

	rep, err := h.g.CheckDrift(in.ID, DriftConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted {
		t.Fatalf("false positive drift: %+v", rep)
	}
}

func TestDriftImprovementIsNotDrift(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	driftSeries(t, h, in, 8.0, 30, 4.0, 10) // error halved: better, not drift

	rep, err := h.g.CheckDrift(in.ID, DriftConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted {
		t.Fatal("improvement flagged as drift")
	}
}

func TestDriftInsufficientHistory(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	driftSeries(t, h, in, 8.0, 5, 0, 0)
	rep, err := h.g.CheckDrift(in.ID, DriftConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted || rep.Samples != 5 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Checked {
		t.Fatal("5 samples must not count as a verdict")
	}
}

func TestDriftCheckedOnVerdict(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	driftSeries(t, h, in, 8.0, 30, 8.1, 10)
	rep, err := h.g.CheckDrift(in.ID, DriftConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || rep.Drifted {
		t.Fatalf("report = %+v", rep)
	}
}

func TestDriftBaselineShorterThanRequested(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	// Only 4 baseline points available though the config asks for 30: the
	// check must still run over what exists rather than refuse or read out
	// of bounds.
	driftSeries(t, h, in, 8.0, 4, 16.0, 10)
	rep, err := h.g.CheckDrift(in.ID, DriftConfig{Metric: "mape", Window: 10, Baseline: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || !rep.Drifted {
		t.Fatalf("report = %+v", rep)
	}
	if rep.BaselineMean != 8.0 || rep.RecentMean != 16.0 {
		t.Fatalf("means = %v / %v", rep.BaselineMean, rep.RecentMean)
	}
}

func TestDriftNearZeroBaselineMean(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	driftSeries(t, h, in, 0.0, 30, 0.5, 10) // baseline mean exactly zero
	rep, err := h.g.CheckDrift(in.ID, DriftConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || !rep.Drifted {
		t.Fatalf("report = %+v", rep)
	}
	if math.IsNaN(rep.Degradation) || math.IsInf(rep.Degradation, 0) {
		t.Fatalf("degradation = %v", rep.Degradation)
	}
}

func TestDriftRejectsNegativeThreshold(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	_, err := h.g.CheckDrift(in.ID, DriftConfig{Metric: "mape", Threshold: -0.1})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
}

func TestDriftSmallExplicitThreshold(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	driftSeries(t, h, in, 8.0, 30, 8.4, 10) // 5% degradation
	// A tiny explicit threshold must be honored, not snapped to 0.25.
	rep, err := h.g.CheckDrift(in.ID, DriftConfig{Metric: "mape", Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drifted {
		t.Fatalf("threshold 0.01 ignored: %+v", rep)
	}
}

func TestDriftNeedsMetricName(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	if _, err := h.g.CheckDrift(in.ID, DriftConfig{}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v", err)
	}
}

func TestSkewDetected(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeValidation, 8.0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeProduction, 13.0); err != nil {
		t.Fatal(err)
	}
	rep, err := h.g.CheckSkew(in.ID, SkewConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || !rep.Skewed {
		t.Fatalf("report = %+v", rep)
	}
	if rep.OfflineScope != ScopeValidation {
		t.Fatalf("offline scope = %s", rep.OfflineScope)
	}
}

func TestNoSkewWhenAligned(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeValidation, 8.0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeProduction, 8.5); err != nil {
		t.Fatal(err)
	}
	rep, err := h.g.CheckSkew(in.ID, SkewConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || rep.Skewed {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSkewFallsBackToTraining(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeTraining, 6.0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeProduction, 6.1); err != nil {
		t.Fatal(err)
	}
	rep, err := h.g.CheckSkew(in.ID, SkewConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || rep.OfflineScope != ScopeTraining {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSkewRejectsNegativeThreshold(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	_, err := h.g.CheckSkew(in.ID, SkewConfig{Metric: "mape", Threshold: -1})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v, want ErrBadSpec", err)
	}
}

func TestSkewSmallExplicitThreshold(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeValidation, 8.0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeProduction, 8.5); err != nil {
		t.Fatal(err)
	}
	rep, err := h.g.CheckSkew(in.ID, SkewConfig{Metric: "mape", Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checked || !rep.Skewed {
		t.Fatalf("threshold 0.01 ignored: %+v", rep)
	}
}

func TestSkewUncheckedWithoutBothSides(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mape", ScopeValidation, 8.0); err != nil {
		t.Fatal(err)
	}
	rep, err := h.g.CheckSkew(in.ID, SkewConfig{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked || rep.Skewed {
		t.Fatalf("report = %+v", rep)
	}
}
