package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/uuid"
)

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

type harness struct {
	c   *client.Client
	clk *clock.Mock
	ts  *httptest.Server
	eng *rules.Engine
	srv *Server
}

// flush waits until every engine notification enqueued so far has been
// evaluated, making the async dispatch path deterministic in tests.
func (h *harness) flush() {
	if h.srv != nil {
		h.srv.Flush()
	}
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := rules.NewRepo(clk)
	eng := rules.NewEngine(reg, repo, clk)
	srv := NewWith(reg, repo, eng, Options{Obs: obs.NewRegistry()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &harness{c: client.New(ts.URL, ts.Client()), clk: clk, ts: ts, eng: eng, srv: srv}
}

// newStorageOnlyHarness serves a registry without the rule engine —
// the paper's feature tiers 1–3 deployment (§6.3).
func newStorageOnlyHarness(t *testing.T) *harness {
	t.Helper()
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(12),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &harness{c: client.New(ts.URL, ts.Client()), clk: clk, ts: ts, srv: srv}
}

func (h *harness) registerModel(t *testing.T, name, domain string) api.Model {
	t.Helper()
	m, err := h.c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "bv-" + name,
		Project:       "example-project",
		Name:          name,
		Domain:        domain,
		Owner:         "tester",
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (h *harness) upload(t *testing.T, modelID, city string, blob []byte) api.Instance {
	t.Helper()
	h.clk.Advance(time.Minute)
	in, err := h.c.UploadInstance(api.UploadInstanceRequest{
		ModelID:   modelID,
		Name:      "Random Forest",
		City:      city,
		Framework: "SparkML",
		Blob:      blob,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPaperWorkflowListings3To5 walks the exact user workflow of paper
// §4.1: train → serialize → upload with metadata (Listing 3), save a
// performance metric (Listing 4), then search by constraints (Listing 5).
func TestPaperWorkflowListings3To5(t *testing.T) {
	h := newHarness(t)

	// Listing 3: create model + upload instance with metadata.
	m, err := h.c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "supply_rejection",
		Project:       "example-project",
		Name:          "random_forest",
		Domain:        "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("serialized SparkML pipeline model")
	in, err := h.c.UploadInstance(api.UploadInstanceRequest{
		ModelID:   m.ID,
		Name:      "Random Forest",
		City:      "New York City",
		Framework: "SparkML",
		Blob:      blob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.BlobLocation == "" {
		t.Fatal("upload did not assign a blob location")
	}

	// Listing 4: upload a model instance performance metric.
	if _, err := h.c.InsertMetric(in.ID, "bias", string(core.ScopeValidation), 0.05); err != nil {
		t.Fatal(err)
	}

	// Listing 5: model query with performance criteria.
	results, err := h.c.Search(api.SearchRequest{Constraints: []api.SearchConstraint{
		{Field: "projectName", Operator: "equal", Value: "example-project"},
		{Field: "modelName", Operator: "equal", Value: "Random Forest"},
		{Field: "metricName", Operator: "equal", Value: "bias"},
		{Field: "metricValue", Operator: "smaller_than", Number: 0.25},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != in.ID {
		t.Fatalf("search = %v", results)
	}

	// Fetch the model back for serving.
	got, err := h.c.FetchBlob(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("blob round trip: %q", got)
	}
}

func TestModelEndpoints(t *testing.T) {
	h := newHarness(t)
	m := h.registerModel(t, "demand", "UberX")

	got, err := h.c.GetModel(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseVersionID != "bv-demand" {
		t.Fatalf("GetModel = %+v", got)
	}

	m2, err := h.c.EvolveModel(m.ID, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Major != 2 || m2.PrevModel != m.ID {
		t.Fatalf("evolved = %+v", m2)
	}
	chain, err := h.c.Evolution(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("evolution = %d records", len(chain))
	}
	ms, err := h.c.ModelsByBase("bv-demand")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("by base = %d", len(ms))
	}
	if err := h.c.DeprecateModel(m.ID); err != nil {
		t.Fatal(err)
	}
	got, _ = h.c.GetModel(m.ID)
	if !got.Deprecated {
		t.Fatal("deprecation lost")
	}
}

func TestErrorMapping(t *testing.T) {
	h := newHarness(t)
	// 404 for unknown model.
	_, err := h.c.GetModel(uuid.New().String())
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 404 {
		t.Fatalf("unknown model err = %v", err)
	}
	// 400 for malformed id.
	_, err = h.c.GetModel("not-a-uuid")
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 {
		t.Fatalf("bad id err = %v", err)
	}
	// 400 for registration without base version id.
	_, err = h.c.RegisterModel(api.RegisterModelRequest{})
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 {
		t.Fatalf("bad spec err = %v", err)
	}
	// 404 for the log route of a server built without a log ring.
	_, err = h.c.DebugLogs(client.LogsQuery{})
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 404 {
		t.Fatalf("logs without a ring err = %v", err)
	}
	// 409 for cycles.
	a := h.registerModel(t, "a", "d")
	b := h.registerModel(t, "b", "d")
	if err := h.c.AddDependency(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	err = h.c.AddDependency(b.ID, a.ID)
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 409 {
		t.Fatalf("cycle err = %v", err)
	}
}

func TestDependencyAndVersionEndpoints(t *testing.T) {
	h := newHarness(t)
	b := h.registerModel(t, "B", "d")
	a, err := h.c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "bv-A", InitialMajor: 4, Upstreams: []string{b.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	ups, err := h.c.Upstreams(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || ups[0] != b.ID {
		t.Fatalf("upstreams = %v", ups)
	}
	downs, err := h.c.Downstreams(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(downs) != 1 || downs[0] != a.ID {
		t.Fatalf("downstreams = %v", downs)
	}

	// Retrain B; A gains a non-production dep_update version.
	h.upload(t, b.ID, "sf", []byte("b2"))
	vs, err := h.c.VersionHistory(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	last := vs[len(vs)-1]
	if last.Version != "4.1" || last.Cause != "dep_update" || last.Production {
		t.Fatalf("A last version = %+v", last)
	}
	prod, err := h.c.ProductionVersion(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Version != "4.0" {
		t.Fatalf("A production = %s", prod.Version)
	}
	// Owner promotes.
	if err := h.c.Promote(last.ID); err != nil {
		t.Fatal(err)
	}
	prod, _ = h.c.ProductionVersion(a.ID)
	if prod.Version != "4.1" {
		t.Fatalf("A production after promote = %s", prod.Version)
	}

	if err := h.c.RemoveDependency(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	ups, _ = h.c.Upstreams(a.ID)
	if len(ups) != 0 {
		t.Fatalf("upstreams after removal = %v", ups)
	}
}

func TestMetricEndpointsAndSeries(t *testing.T) {
	h := newHarness(t)
	m := h.registerModel(t, "demand", "UberX")
	in := h.upload(t, m.ID, "sf", []byte("x"))
	if _, err := h.c.InsertMetric(in.ID, "mape", "production", 8.0); err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(time.Minute)
	if _, err := h.c.InsertMetric(in.ID, "mape", "production", 9.0); err != nil {
		t.Fatal(err)
	}
	if err := h.c.InsertMetrics(in.ID, "training", map[string]float64{"r2": 0.9, "mae": 3}); err != nil {
		t.Fatal(err)
	}
	series, err := h.c.MetricSeries(in.ID, "mape", "production")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[1].Value != 9.0 {
		t.Fatalf("series = %v", series)
	}
	// Invalid scope is a 400.
	_, err = h.c.InsertMetric(in.ID, "mape", "bogus", 1)
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 {
		t.Fatalf("bad scope err = %v", err)
	}
}

func TestLineageAndStatsEndpoints(t *testing.T) {
	h := newHarness(t)
	m := h.registerModel(t, "supply_cancellation", "UberX")
	for i := 0; i < 4; i++ {
		h.upload(t, m.ID, "sf", []byte{byte(i)})
	}
	lin, err := h.c.Lineage("bv-supply_cancellation")
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) != 4 {
		t.Fatalf("lineage = %d", len(lin))
	}
	for i := 1; i < len(lin); i++ {
		if lin[i].Created.Before(lin[i-1].Created) {
			t.Fatal("lineage out of time order")
		}
	}
	st, err := h.c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Models != 1 || st.Instances != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRuleEndpointsEndToEnd(t *testing.T) {
	h := newHarness(t)
	m := h.registerModel(t, "linear_regression", "UberX")
	old := h.upload(t, m.ID, "sf", []byte("old"))
	fresh := h.upload(t, m.ID, "sf", []byte("fresh"))
	for _, in := range []api.Instance{old, fresh} {
		if _, err := h.c.InsertMetric(in.ID, "mae", "validation", 2.0); err != nil {
			t.Fatal(err)
		}
	}

	ruleJSON := json.RawMessage(`{
		"uuid": "316b3ab4-2509-4ea7-8025-00ca879dac61",
		"team": "forecasting",
		"name": "select-fresh",
		"kind": "selection",
		"given": "model_name == 'linear_regression' && model_domain == 'UberX'",
		"when": "metrics['mae'] < 5",
		"environment": "production",
		"model_selection": "a.created_time > b.created_time"
	}`)
	hash, err := h.c.CommitRules("alice", "add", []json.RawMessage{ruleJSON}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hash == "" {
		t.Fatal("no commit hash")
	}

	got, err := h.c.SelectModel("316b3ab4-2509-4ea7-8025-00ca879dac61", api.SearchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != fresh.ID {
		t.Fatalf("champion = %s, want fresh %s", got.ID, fresh.ID)
	}

	// Invalid rule rejected with 400.
	_, err = h.c.CommitRules("alice", "bad", []json.RawMessage{json.RawMessage(`{"uuid":"x"}`)}, nil)
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 {
		t.Fatalf("invalid rule err = %v", err)
	}
}

// TestMetricUpdateTriggersActionRule verifies the server fires the engine
// on metric writes, completing Fig. 8's Client 2 path over HTTP.
func TestMetricUpdateTriggersActionRule(t *testing.T) {
	h := newHarness(t)
	m := h.registerModel(t, "Random Forest", "UberX")
	in := h.upload(t, m.ID, "sf", []byte("x"))

	deployed := make(chan string, 1)
	h.eng.RegisterAction("forecasting_deployment", func(ctx *rules.ActionContext) error {
		deployed <- ctx.Instance.ID.String()
		return nil
	})
	ruleJSON := json.RawMessage(`{
		"uuid": "4365754a-92bb-4421-a1be-00d7d87f77a0",
		"team": "forecasting",
		"name": "deploy-on-bias",
		"kind": "action",
		"given": "model_name == 'Random Forest' && model_domain == 'UberX'",
		"when": "metrics.bias <= 0.1 && metrics.bias >= -0.1",
		"environment": "production",
		"callback_actions": [{"action": "forecasting_deployment"}]
	}`)
	if _, err := h.c.CommitRules("alice", "add", []json.RawMessage{ruleJSON}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.InsertMetric(in.ID, "bias", "validation", 0.02); err != nil {
		t.Fatal(err)
	}
	// Metric notifications are dispatched off the request path; wait for
	// the queue to drain before asserting the action fired.
	h.flush()
	select {
	case id := <-deployed:
		if id != in.ID {
			t.Fatalf("deployed %s, want %s", id, in.ID)
		}
	default:
		t.Fatal("metric insert over HTTP did not trigger the action rule")
	}
}

func TestSearchValidation(t *testing.T) {
	h := newHarness(t)
	// Unknown field.
	_, err := h.c.Search(api.SearchRequest{Constraints: []api.SearchConstraint{
		{Field: "bogus", Operator: "equal", Value: "x"},
	}})
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 {
		t.Fatalf("unknown field err = %v", err)
	}
	// Non-equality on metadata.
	_, err = h.c.Search(api.SearchRequest{Constraints: []api.SearchConstraint{
		{Field: "city", Operator: "smaller_than", Value: "x"},
	}})
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 {
		t.Fatalf("bad op err = %v", err)
	}
	// metricName without metricValue.
	_, err = h.c.Search(api.SearchRequest{Constraints: []api.SearchConstraint{
		{Field: "metricName", Operator: "equal", Value: "bias"},
	}})
	if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 {
		t.Fatalf("dangling metricName err = %v", err)
	}
}

// TestSearchRefusesMisreadRequests: search requests the filter cannot
// honour exactly are refused with 400, not answered with the unfiltered
// result set (a dangling metricValue or metricScope), an empty one (a
// string operator on a float) or an unlimited one (a negative limit).
func TestSearchRefusesMisreadRequests(t *testing.T) {
	h := newHarness(t)
	m := h.registerModel(t, "demand", "UberX")
	in := h.upload(t, m.ID, "sf", []byte("x"))
	if _, err := h.c.InsertMetric(in.ID, "mape", string(core.ScopeValidation), 0.5); err != nil {
		t.Fatal(err)
	}
	city := api.SearchConstraint{Field: "city", Operator: "equal", Value: "sf"}
	name := api.SearchConstraint{Field: "metricName", Operator: "equal", Value: "mape"}
	for _, tc := range []struct {
		name string
		req  api.SearchRequest
	}{
		{"metricValue without metricName", api.SearchRequest{Constraints: []api.SearchConstraint{
			city, {Field: "metricValue", Operator: "smaller_than", Number: 0.1}}}},
		{"metricScope without metricName", api.SearchRequest{Constraints: []api.SearchConstraint{
			city, {Field: "metricScope", Operator: "equal", Value: "validation"}}}},
		{"metricValue prefix", api.SearchRequest{Constraints: []api.SearchConstraint{
			city, name, {Field: "metricValue", Operator: "prefix", Number: 0.5}}}},
		{"metricValue contains", api.SearchRequest{Constraints: []api.SearchConstraint{
			city, name, {Field: "metricValue", Operator: "contains", Number: 0.5}}}},
		{"metricValue in", api.SearchRequest{Constraints: []api.SearchConstraint{
			city, name, {Field: "metricValue", Operator: "in", Number: 0.5}}}},
		{"negative limit", api.SearchRequest{Constraints: []api.SearchConstraint{city}, Limit: -1}},
	} {
		got, err := h.c.Search(tc.req)
		if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 {
			t.Errorf("%s: got %d results, err %v; want a 400", tc.name, len(got), err)
		}
	}
	// The well-formed neighbours still answer.
	for _, req := range []api.SearchRequest{
		{Constraints: []api.SearchConstraint{city, name, {Field: "metricValue", Operator: "equal", Number: 0.5}}},
		{Constraints: []api.SearchConstraint{city, name, {Field: "metricValue", Operator: "not_equal", Number: 0.1}}},
		{Constraints: []api.SearchConstraint{city}, Limit: 0},
	} {
		got, err := h.c.Search(req)
		if err != nil || len(got) != 1 || got[0].ID != in.ID {
			t.Errorf("search %+v = %v, %v; want the one instance", req, got, err)
		}
	}
}

func TestDeprecateInstanceOverHTTP(t *testing.T) {
	h := newHarness(t)
	m := h.registerModel(t, "demand", "UberX")
	in := h.upload(t, m.ID, "sf", []byte("x"))
	if err := h.c.DeprecateInstance(in.ID); err != nil {
		t.Fatal(err)
	}
	results, err := h.c.Search(api.SearchRequest{Constraints: []api.SearchConstraint{
		{Field: "city", Operator: "equal", Value: "sf"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatal("deprecated instance still searchable")
	}
	// Still fetchable directly.
	if _, err := h.c.FetchBlob(in.ID); err != nil {
		t.Fatal(err)
	}
}

func TestDriftAndSkewEndpoints(t *testing.T) {
	h := newHarness(t)
	m := h.registerModel(t, "demand", "UberX")
	in := h.upload(t, m.ID, "sf", []byte("x"))
	for i := 0; i < 30; i++ {
		h.clk.Advance(time.Minute)
		if _, err := h.c.InsertMetric(in.ID, "mape", "production", 8.0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		h.clk.Advance(time.Minute)
		if _, err := h.c.InsertMetric(in.ID, "mape", "production", 15.0); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := h.c.CheckDrift(in.ID, api.DriftRequest{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drifted {
		t.Fatalf("drift report = %+v", rep)
	}

	if _, err := h.c.InsertMetric(in.ID, "mape", "validation", 8.0); err != nil {
		t.Fatal(err)
	}
	skew, err := h.c.CheckSkew(in.ID, api.SkewRequest{Metric: "mape"})
	if err != nil {
		t.Fatal(err)
	}
	if !skew.Checked || !skew.Skewed {
		t.Fatalf("skew report = %+v", skew)
	}
}
