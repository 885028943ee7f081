package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestParseMetricsBlob(t *testing.T) {
	blob := []byte("mape:8.2\nbias:-0.05, r2:0.91\n\n precision : 0.8 ")
	got, err := ParseMetricsBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mape": 8.2, "bias": -0.05, "r2": 0.91, "precision": 0.8}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestParseMetricsBlobErrors(t *testing.T) {
	bad := [][]byte{
		[]byte(""),
		[]byte("\n,\n"),
		[]byte("noseparator"),
		[]byte("mape:abc"),
		[]byte(":1.0"),
		[]byte("mape:1\nmape:2"), // duplicate
		[]byte("mape:NaN"),       // non-finite values pass strconv, not the registry
		[]byte("mape:0.1,bias:Inf"),
		[]byte("mape:-infinity"),
	}
	for _, blob := range bad {
		if _, err := ParseMetricsBlob(blob); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseMetricsBlob(%q) = %v, want ErrBadSpec", blob, err)
		}
	}
}

// Property: Format/Parse is an identity for finite values.
func TestQuickMetricsBlobRoundTrip(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip non-finite draws
			}
		}
		in := map[string]float64{"mape": a, "bias": b, "r2": c}
		out, err := ParseMetricsBlob(FormatMetricsBlob(in))
		if err != nil {
			return false
		}
		return out["mape"] == a && out["bias"] == b && out["r2"] == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertMetricsBlob(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	if err := h.g.InsertMetricsBlob(in.ID, ScopeValidation, []byte("mape:7.5\nbias:0.01")); err != nil {
		t.Fatal(err)
	}
	vals, err := h.g.LatestMetrics(in.ID, ScopeValidation)
	if err != nil {
		t.Fatal(err)
	}
	if vals["mape"] != 7.5 || vals["bias"] != 0.01 {
		t.Fatalf("vals = %v", vals)
	}
	if err := h.g.InsertMetricsBlob(in.ID, ScopeValidation, []byte("garbage")); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad blob err = %v", err)
	}
}

func TestCheckFleetHealth(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "fleet")

	healthy := h.upload(t, m, "sf", []byte("a"))
	drifted := h.upload(t, m, "nyc", []byte("b"))
	skewed := h.upload(t, m, "la", []byte("c"))
	bare, err := h.g.UploadInstance(InstanceSpec{ModelID: m.ID, Name: "bare", City: "chi"}, []byte("d"))
	if err != nil {
		t.Fatal(err)
	}

	report := func(in *Instance, scope Scope, name string, v float64) {
		t.Helper()
		h.clk.Advance(time.Minute)
		if _, err := h.g.InsertMetric(in.ID, name, scope, v); err != nil {
			t.Fatal(err)
		}
	}
	// Healthy: stable production series matching validation.
	report(healthy, ScopeValidation, "mape", 8)
	for i := 0; i < 20; i++ {
		report(healthy, ScopeProduction, "mape", 8.1)
	}
	// Drifted: production error ramps up.
	report(drifted, ScopeValidation, "mape", 8)
	for i := 0; i < 15; i++ {
		report(drifted, ScopeProduction, "mape", 8)
	}
	for i := 0; i < 10; i++ {
		report(drifted, ScopeProduction, "mape", 16)
	}
	// Skewed: offline 8, production 14, but stable (no drift).
	report(skewed, ScopeValidation, "mape", 8)
	for i := 0; i < 20; i++ {
		report(skewed, ScopeProduction, "mape", 14)
	}

	rep, err := h.g.CheckFleetHealth(FleetHealthConfig{
		Project: "marketplace",
		Metric:  "mape",
		Drift:   DriftConfig{Window: 10, Baseline: 15},
		Skew:    SkewConfig{Threshold: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 4 {
		t.Fatalf("total = %d", rep.Total)
	}
	if rep.Drifted != 1 {
		t.Errorf("drifted = %d, want 1", rep.Drifted)
	}
	// Both the skewed and the drifted instance have production far from
	// offline, so skew >= 1; the healthy one must not be flagged.
	if rep.Skewed < 1 {
		t.Errorf("skewed = %d, want >= 1", rep.Skewed)
	}
	if rep.MissingMetrics != 1 { // the bare instance
		t.Errorf("missing metrics = %d, want 1", rep.MissingMetrics)
	}
	byID := map[string]InstanceHealth{}
	for _, ih := range rep.Instances {
		byID[ih.City] = ih
	}
	if byID["sf"].Drift.Drifted || byID["sf"].Skew.Skewed {
		t.Error("healthy instance flagged")
	}
	if !byID["nyc"].Drift.Drifted {
		t.Error("drifted instance not flagged")
	}
	if !byID["la"].Skew.Skewed {
		t.Error("skewed instance not flagged")
	}
	if byID["chi"].HasMetrics {
		t.Error("bare instance claims metrics")
	}
	_ = bare
}

func TestFleetHealthSkipsDeprecated(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "fleet")
	in := h.upload(t, m, "sf", []byte("a"))
	if err := h.g.DeprecateInstance(in.ID); err != nil {
		t.Fatal(err)
	}
	rep, err := h.g.CheckFleetHealth(FleetHealthConfig{Project: "marketplace"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 {
		t.Fatalf("swept %d deprecated instances", rep.Total)
	}
}
