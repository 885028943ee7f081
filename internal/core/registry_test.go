package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

// harness wires a deterministic registry for tests.
type harness struct {
	g   *Registry
	clk *clock.Mock
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	clk := clock.NewMock(t0)
	g, err := New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{g: g, clk: clk}
}

func (h *harness) model(t *testing.T, base string) *Model {
	t.Helper()
	m, err := h.g.RegisterModel(ModelSpec{
		BaseVersionID: base,
		Project:       "marketplace",
		Name:          "linear_regression",
		Owner:         "forecasting-team",
		Domain:        "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (h *harness) upload(t *testing.T, m *Model, city string, blob []byte) *Instance {
	t.Helper()
	h.clk.Advance(time.Minute)
	in, err := h.g.UploadInstance(InstanceSpec{
		ModelID:      m.ID,
		Name:         "Random Forest",
		City:         city,
		Framework:    "SparkML",
		TrainingData: "hdfs://data/v1",
		CodePointer:  "git://repo@abc123",
		Seed:         42,
		Epochs:       10,
		Hyperparams:  `{"trees":100}`,
		Features:     "hour,dow,weather",
	}, blob)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRegisterAndGetModel(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "supply_rejection")
	got, err := h.g.GetModel(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseVersionID != "supply_rejection" || got.Project != "marketplace" || got.Major != 1 {
		t.Fatalf("model = %+v", got)
	}
	// Registration creates an initial production version 1.0.
	v, err := h.g.ProductionVersion(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "1.0" || v.Cause != CauseRegistered {
		t.Fatalf("initial version = %s cause %s", v, v.Cause)
	}
}

func TestRegisterModelRequiresBase(t *testing.T) {
	h := newHarness(t)
	if _, err := h.g.RegisterModel(ModelSpec{}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterModelUnknownUpstream(t *testing.T) {
	h := newHarness(t)
	_, err := h.g.RegisterModel(ModelSpec{
		BaseVersionID: "x",
		Upstreams:     []uuid.UUID{uuid.New()},
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Failed registration must leave nothing behind (atomic batch).
	models, _, _ := h.g.Counts()
	if models != 0 {
		t.Fatalf("partial registration left %d models", models)
	}
}

func TestUploadInstanceRoundTrip(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "supply_rejection")
	blob := []byte("serialized SparkML pipeline")
	in := h.upload(t, m, "New York City", blob)

	got, err := h.g.GetInstance(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.City != "New York City" || got.Framework != "SparkML" || got.BaseVersionID != "supply_rejection" {
		t.Fatalf("instance = %+v", got)
	}
	data, err := h.g.FetchBlob(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, blob) {
		t.Fatalf("blob = %q", data)
	}
}

func TestUploadInstanceUnknownModel(t *testing.T) {
	h := newHarness(t)
	_, err := h.g.UploadInstance(InstanceSpec{ModelID: uuid.New()}, []byte("x"))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestUploadBumpsVersion(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	h.upload(t, m, "sf", []byte("v1"))
	h.upload(t, m, "sf", []byte("v2"))
	v, err := h.g.LatestVersion(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "1.2" || v.Cause != CauseRetrained {
		t.Fatalf("latest = %s cause %s", v, v.Cause)
	}
	// The owner's own retrain is promoted automatically.
	p, err := h.g.ProductionVersion(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != v.ID {
		t.Fatalf("production = %s, want latest %s", p, v)
	}
	hist, err := h.g.VersionHistory(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 { // 1.0 registered, 1.1, 1.2
		t.Fatalf("history len = %d", len(hist))
	}
}

// TestLineageFigure4 reproduces paper Figure 4: two base version ids, one
// with four instances, traversed in time order. (Experiment E4.)
func TestLineageFigure4(t *testing.T) {
	h := newHarness(t)
	dc := h.model(t, "demand_conversion")
	sc := h.model(t, "supply_cancellation")

	h.upload(t, dc, "sf", []byte("dc-1"))
	var scInstances []*Instance
	for i := 0; i < 4; i++ {
		scInstances = append(scInstances, h.upload(t, sc, "sf", []byte(fmt.Sprintf("sc-%d", i))))
	}

	lineage, err := h.g.Lineage("supply_cancellation")
	if err != nil {
		t.Fatal(err)
	}
	if len(lineage) != 4 {
		t.Fatalf("supply_cancellation lineage has %d instances, want 4", len(lineage))
	}
	for i, in := range lineage {
		if in.ID != scInstances[i].ID {
			t.Fatalf("lineage[%d] = %s, want %s (time order)", i, in.ID, scInstances[i].ID)
		}
		if in.BaseVersionID != "supply_cancellation" {
			t.Fatalf("lineage[%d] has base %q", i, in.BaseVersionID)
		}
		seen := make(map[uuid.UUID]bool)
		if seen[in.ID] {
			t.Fatal("duplicate UUID in lineage")
		}
		seen[in.ID] = true
	}
	other, err := h.g.Lineage("demand_conversion")
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != 1 {
		t.Fatalf("demand_conversion lineage has %d instances", len(other))
	}
}

func TestEvolutionChain(t *testing.T) {
	h := newHarness(t)
	m1 := h.model(t, "demand")
	m2, err := h.g.EvolveModel(m1.ID, "add weather features")
	if err != nil {
		t.Fatal(err)
	}
	m3, err := h.g.EvolveModel(m2.ID, "switch to neural network")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Major != 2 || m3.Major != 3 {
		t.Fatalf("majors = %d, %d", m2.Major, m3.Major)
	}
	// Evolving an already-evolved record is rejected.
	if _, err := h.g.EvolveModel(m1.ID, "again"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("double evolve err = %v", err)
	}
	// The chain reads the same from any entry point.
	for _, entry := range []uuid.UUID{m1.ID, m2.ID, m3.ID} {
		chain, err := h.g.Evolution(entry)
		if err != nil {
			t.Fatal(err)
		}
		if len(chain) != 3 || chain[0].ID != m1.ID || chain[2].ID != m3.ID {
			t.Fatalf("chain from %s = %v", entry, chain)
		}
	}
}

func TestEvolveInheritsDependencies(t *testing.T) {
	h := newHarness(t)
	b := h.model(t, "B")
	a, err := h.g.RegisterModel(ModelSpec{BaseVersionID: "A", Upstreams: []uuid.UUID{b.ID}})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := h.g.EvolveModel(a.ID, "v2")
	if err != nil {
		t.Fatal(err)
	}
	ups, err := h.g.Upstreams(a2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || ups[0] != b.ID {
		t.Fatalf("evolved upstreams = %v", ups)
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))

	if _, err := h.g.InsertMetric(in.ID, "bias", ScopeValidation, 0.05); err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(time.Minute)
	if _, err := h.g.InsertMetric(in.ID, "bias", ScopeValidation, 0.07); err != nil {
		t.Fatal(err)
	}
	if err := h.g.InsertMetrics(in.ID, ScopeTraining, map[string]float64{"mape": 8.2, "r2": 0.91}); err != nil {
		t.Fatal(err)
	}

	series, err := h.g.MetricSeries(in.ID, "bias", ScopeValidation)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Value != 0.05 || series[1].Value != 0.07 {
		t.Fatalf("series = %v", series)
	}
	latest, err := h.g.LatestMetrics(in.ID, ScopeValidation)
	if err != nil {
		t.Fatal(err)
	}
	if latest["bias"] != 0.07 {
		t.Fatalf("latest bias = %v", latest["bias"])
	}
	training, _ := h.g.LatestMetrics(in.ID, ScopeTraining)
	if training["mape"] != 8.2 || training["r2"] != 0.91 {
		t.Fatalf("training metrics = %v", training)
	}
	// Both read through instance_id: the name equality MetricSeries adds is
	// also the (name, value) index's prefix, which must not win the tie.
	for _, q := range []relstore.Query{metricSeriesQuery(in.ID, "bias", ScopeValidation), latestMetricsQuery(in.ID, ScopeValidation)} {
		if _, ex, err := h.g.dal.Meta().SelectExplain(q); err != nil || ex.Index != "instance_id" {
			t.Fatalf("%+v planned on %q (err %v), want instance_id", q.Where, ex.Index, err)
		}
	}
}

func TestMetricValidation(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	if _, err := h.g.InsertMetric(in.ID, "", ScopeTraining, 1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty name err = %v", err)
	}
	if _, err := h.g.InsertMetric(in.ID, "mape", Scope("bogus"), 1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad scope err = %v", err)
	}
	if _, err := h.g.InsertMetric(uuid.New(), "mape", ScopeTraining, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown instance err = %v", err)
	}
	// No threshold can judge NaN or ±Inf, so neither path stores one.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := h.g.InsertMetric(in.ID, "mape", ScopeTraining, v); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("InsertMetric(%v) err = %v", v, err)
		}
		if err := h.g.InsertMetrics(in.ID, ScopeTraining, map[string]float64{"bias": 0.1, "mape": v}); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("InsertMetrics(mape=%v) err = %v", v, err)
		}
	}
	if got, err := h.g.LatestMetrics(in.ID, ScopeTraining); err != nil || len(got) != 0 {
		t.Fatalf("refused metrics were stored: %v, %v", got, err)
	}
}

func TestSearchInstances(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "demand")
	cities := []string{"sf", "nyc", "sf", "la", "sf"}
	var ins []*Instance
	for i, c := range cities {
		in := h.upload(t, m, c, []byte(fmt.Sprintf("blob-%d", i)))
		ins = append(ins, in)
	}
	// Paper Listing 5: project + name + metric constraint.
	for i, in := range ins {
		if _, err := h.g.InsertMetric(in.ID, "bias", ScopeValidation, float64(i)*0.1); err != nil {
			t.Fatal(err)
		}
	}

	got, err := h.g.SearchInstances(InstanceFilter{City: "sf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("city=sf matched %d", len(got))
	}
	// Newest first.
	if got[0].ID != ins[4].ID {
		t.Fatalf("results not newest-first")
	}

	got, err = h.g.SearchInstances(InstanceFilter{
		Project:     "marketplace",
		MetricName:  "bias",
		MetricOp:    relstore.OpLt,
		MetricValue: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // bias 0.0, 0.1, 0.2
		t.Fatalf("metric search matched %d, want 3", len(got))
	}

	got, err = h.g.SearchInstances(InstanceFilter{City: "sf", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

func TestSearchSkipsDeprecated(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "demand")
	in1 := h.upload(t, m, "sf", []byte("a"))
	in2 := h.upload(t, m, "sf", []byte("b"))
	if err := h.g.DeprecateInstance(in1.ID); err != nil {
		t.Fatal(err)
	}
	got, err := h.g.SearchInstances(InstanceFilter{City: "sf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != in2.ID {
		t.Fatalf("default search returned %d results", len(got))
	}
	got, err = h.g.SearchInstances(InstanceFilter{City: "sf", IncludeDeprecated: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("IncludeDeprecated returned %d results", len(got))
	}
	// Deprecated instances are still directly fetchable (paper §3.7:
	// dependents keep working until they migrate).
	if _, err := h.g.FetchBlob(in1.ID); err != nil {
		t.Fatalf("deprecated instance blob unavailable: %v", err)
	}
}

func TestDeprecateModel(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "old")
	if err := h.g.DeprecateModel(m.ID); err != nil {
		t.Fatal(err)
	}
	got, err := h.g.GetModel(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Deprecated {
		t.Fatal("model not flagged")
	}
}

func TestImmutabilityOfStoredInstance(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "b")
	in := h.upload(t, m, "sf", []byte("x"))
	// Mutating the returned struct must not affect the stored record.
	in.City = "mutated"
	got, err := h.g.GetInstance(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.City != "sf" {
		t.Fatal("stored instance mutated through a returned pointer")
	}
}

func TestModelsByBase(t *testing.T) {
	h := newHarness(t)
	m1 := h.model(t, "demand")
	h.clk.Advance(time.Hour)
	m2, err := h.g.EvolveModel(m1.ID, "v2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.g.ModelsByBase("demand")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != m1.ID || got[1].ID != m2.ID {
		t.Fatalf("ModelsByBase = %v", got)
	}
}

// TestInsertMetricsIsAtomic: a metric set is one batch, so a set with a
// bad entry leaves none of its rows behind (it used to leave the ones that
// sorted before the bad name), and a good set is exactly its rows.
func TestInsertMetricsIsAtomic(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "demand")
	in := h.upload(t, m, "sf", []byte("x"))
	_, _, before := h.g.Counts()

	err := h.g.InsertMetrics(in.ID, ScopeTraining, map[string]float64{"a": 1, "": 2, "z": 3})
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("set with an empty name: err = %v, want ErrBadSpec", err)
	}
	if err := h.g.InsertMetrics(in.ID, Scope("nonsense"), map[string]float64{"a": 1}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad scope: err = %v, want ErrBadSpec", err)
	}
	if err := h.g.InsertMetrics(uuid.NewSeeded(99).New(), ScopeTraining, map[string]float64{"a": 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown instance: err = %v, want ErrNotFound", err)
	}
	if _, _, after := h.g.Counts(); after != before {
		t.Fatalf("rejected sets left %d metric rows behind", after-before)
	}

	if err := h.g.InsertMetricsBlob(in.ID, ScopeTraining, []byte("mape:8.2\nr2:0.91\nbias:-0.1")); err != nil {
		t.Fatal(err)
	}
	if _, _, after := h.g.Counts(); after != before+3 {
		t.Fatalf("3-pair blob stored %d rows", after-before)
	}
	got, err := h.g.LatestMetrics(in.ID, ScopeTraining)
	if err != nil || len(got) != 3 || got["mape"] != 8.2 || got["bias"] != -0.1 {
		t.Fatalf("stored set = %v, %v", got, err)
	}
}
