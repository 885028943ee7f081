package client_test

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
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/server"
	"gallery/internal/uuid"
)

// TestClientCoversEveryCall drives every client method once against a real
// in-process service, exercising the full wire surface.
func TestClientCoversEveryCall(t *testing.T) {
	clk := clock.NewMock(time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC))
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := rules.NewRepo(clk)
	engine := rules.NewEngine(reg, repo, clk)
	ts := httptest.NewServer(server.NewWith(reg, repo, engine, server.Options{}))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())

	// Models.
	b, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "B", InitialMajor: 2, Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "A", InitialMajor: 4, Project: "p", Name: "linear_regression",
		Domain: "UberX", Upstreams: []string{b.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetModel(a.ID); err != nil {
		t.Fatal(err)
	}
	if ms, err := c.ModelsByBase("A"); err != nil || len(ms) != 1 {
		t.Fatalf("ModelsByBase: %v %v", ms, err)
	}
	a2, err := c.EvolveModel(a.ID, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if chain, err := c.Evolution(a2.ID); err != nil || len(chain) != 2 {
		t.Fatalf("Evolution: %v %v", chain, err)
	}

	// Dependencies and versions.
	if ups, err := c.Upstreams(a.ID); err != nil || len(ups) != 1 {
		t.Fatalf("Upstreams: %v %v", ups, err)
	}
	if downs, err := c.Downstreams(b.ID); err != nil || len(downs) != 2 { // a and a2
		t.Fatalf("Downstreams: %v %v", downs, err)
	}
	d, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "D", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDependency(a.ID, d.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveDependency(a.ID, d.ID); err != nil {
		t.Fatal(err)
	}
	vs, err := c.VersionHistory(a.ID)
	if err != nil || len(vs) < 3 {
		t.Fatalf("VersionHistory: %d %v", len(vs), err)
	}
	if err := c.Promote(vs[len(vs)-1].ID); err != nil {
		t.Fatal(err)
	}
	if pv, err := c.ProductionVersion(a.ID); err != nil || pv.ID != vs[len(vs)-1].ID {
		t.Fatalf("ProductionVersion: %+v %v", pv, err)
	}

	// Instances, blobs, metrics.
	clk.Advance(time.Minute)
	blob := []byte("model bytes")
	in, err := c.UploadInstance(api.UploadInstanceRequest{
		ModelID: a.ID, Name: "Random Forest", City: "sf", Framework: "SparkML", Blob: blob,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.GetInstance(in.ID); err != nil || got.City != "sf" {
		t.Fatalf("GetInstance: %+v %v", got, err)
	}
	if got, err := c.FetchBlob(in.ID); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("FetchBlob: %q %v", got, err)
	}
	if _, err := c.InsertMetric(in.ID, "bias", "validation", 0.05); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertMetrics(in.ID, "training", map[string]float64{"r2": 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertMetricsBlob(in.ID, "production", []byte("mape:7.5")); err != nil {
		t.Fatal(err)
	}
	if series, err := c.MetricSeries(in.ID, "bias", "validation"); err != nil || len(series) != 1 {
		t.Fatalf("MetricSeries: %v %v", series, err)
	}

	// Search and lineage.
	found, err := c.Search(api.SearchRequest{Constraints: []api.SearchConstraint{
		{Field: "city", Operator: "equal", Value: "sf"},
	}})
	if err != nil || len(found) != 1 {
		t.Fatalf("Search: %v %v", found, err)
	}
	if lin, err := c.Lineage("A"); err != nil || len(lin) != 1 {
		t.Fatalf("Lineage: %v %v", lin, err)
	}
	if st, err := c.Stats(); err != nil || st.Instances != 1 {
		t.Fatalf("Stats: %+v %v", st, err)
	}

	// Health.
	if _, err := c.CheckDrift(in.ID, api.DriftRequest{Metric: "mape"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckSkew(in.ID, api.SkewRequest{Metric: "mape"}); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.CheckFleetHealth(api.FleetHealthRequest{Project: "p", Metric: "mape"}); err != nil || rep.Total != 1 {
		t.Fatalf("CheckFleetHealth: %+v %v", rep, err)
	}

	// Rules.
	ruleJSON := json.RawMessage(`{
		"uuid": "r1", "team": "t", "kind": "selection",
		"when": "has(metrics, 'bias')",
		"model_selection": "a.created_time > b.created_time"
	}`)
	hash, err := c.CommitRules("me", "add", []json.RawMessage{ruleJSON}, nil)
	if err != nil || hash == "" {
		t.Fatalf("CommitRules: %q %v", hash, err)
	}
	if raw, err := c.ListRules(); err != nil || !bytes.Contains(raw, []byte(`"r1"`)) {
		t.Fatalf("ListRules: %s %v", raw, err)
	}
	if champ, err := c.SelectModel("r1", api.SearchRequest{}); err != nil || champ.ID != in.ID {
		t.Fatalf("SelectModel: %+v %v", champ, err)
	}
	if alerts, err := c.Alerts(); err != nil || len(alerts) != 0 {
		t.Fatalf("Alerts: %v %v", alerts, err)
	}

	// Deprecation last.
	if err := c.DeprecateInstance(in.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.DeprecateModel(a.ID); err != nil {
		t.Fatal(err)
	}
	if got, err := c.GetModel(a.ID); err != nil || !got.Deprecated {
		t.Fatalf("deprecation: %+v %v", got, err)
	}
}
