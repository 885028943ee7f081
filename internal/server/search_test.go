package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// searchRegistry is FuzzSearch's registry: models over a few base versions
// and names, instances over cities and frameworks (the empty string among
// them), some deprecated, with metrics in two scopes whose values repeat
// often enough to make ties at every bound.
func searchRegistry(tb testing.TB) *core.Registry {
	tb.Helper()
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(45),
	})
	if err != nil {
		tb.Fatal(err)
	}
	cities := []string{"sf", "nyc", "sfo", "", "la"}
	frameworks := []string{"linear_ar", "boost", ""}
	values := []float64{0.05, 0.1, 0.5, 0, -1, 0.1}
	for m := range 4 {
		model, err := reg.RegisterModel(core.ModelSpec{BaseVersionID: fmt.Sprintf("b%d", m%3),
			Project: "marketplace", Name: []string{"demand", "supply"}[m%2], Domain: "UberX"})
		if err != nil {
			tb.Fatal(err)
		}
		for i := range 9 {
			clk.Advance(time.Second)
			in, err := reg.UploadInstance(core.InstanceSpec{ModelID: model.ID, Name: model.Name,
				City: cities[(m+i)%len(cities)], Framework: frameworks[i%len(frameworks)]}, []byte{byte(m), byte(i)})
			if err != nil {
				tb.Fatal(err)
			}
			scope := []core.Scope{core.ScopeValidation, core.ScopeProduction}[i%2]
			if err := reg.InsertMetrics(in.ID, scope, map[string]float64{
				"mape": values[(m*9+i)%len(values)], "bias": values[i%len(values)] - 0.05,
			}); err != nil {
				tb.Fatal(err)
			}
			if i%4 == 3 {
				if err := reg.DeprecateInstance(context.Background(), in.ID); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return reg
}

// FuzzSearch sends fuzzed constraints to POST /v1/search over a seeded
// registry. The answer is 200 or 400, never a 5xx; and a 200 lists exactly
// the instances, in the same order, that the same filter run with
// ForceScan returns, so the planner's choice of index (and the positions
// it reads rows by) never changes an answer.
func FuzzSearch(f *testing.F) {
	reg := searchRegistry(f)
	srv := NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry()})
	f.Add("city", "equal", "sf", 0.0, "", "", "", 0.0, "", "", "", 0.0, 0, false)
	f.Add("city", "equal", "sf", 0.0, "metricName", "equal", "mape", 0.0, "metricValue", "smaller_or_equal", "", 0.1, 5, false)
	f.Add("metricName", "equal", "bias", 0.0, "metricValue", "greater_than", "", -0.05, "metricScope", "equal", "production", 0.0, 0, true)
	f.Add("baseVersionId", "equal", "b1", 0.0, "modelName", "equal", "supply", 0.0, "framework", "equal", "", 0.0, 3, true)
	f.Add("project", "equal", "marketplace", 0.0, "city", "prefix", "s", 0.0, "", "", "", 0.0, -1, false)
	f.Add("metricName", "equal", "mape", 0.0, "metricValue", "not_equal", "", 0.1, "city", "equal", "", 0.0, 2, false)
	f.Add("modelId", "equal", "not-a-uuid", 0.0, "name", "equal", "demand", 0.0, "", "", "", 0.0, 0, false)
	f.Fuzz(func(t *testing.T, field1, op1, value1 string, number1 float64, field2, op2, value2 string, number2 float64,
		field3, op3, value3 string, number3 float64, limit int, deprecated bool) {
		req := api.SearchRequest{Limit: limit, IncludeDeprecated: deprecated}
		for _, c := range []api.SearchConstraint{
			{Field: field1, Operator: op1, Value: value1, Number: number1},
			{Field: field2, Operator: op2, Value: value2, Number: number2},
			{Field: field3, Operator: op3, Value: value3, Number: number3},
		} {
			if c.Field != "" {
				req.Constraints = append(req.Constraints, c)
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return // a NaN or an infinity has no JSON form
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("POST /v1/search %s = %d: %s", body, rec.Code, rec.Body)
		}
		var got []api.Instance
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		filter, err := FilterFromSearch(req)
		if err != nil {
			t.Fatalf("POST /v1/search %s answered 200 for a filter FilterFromSearch refuses: %v", body, err)
		}
		filter.ForceScan = true
		want, err := reg.SearchInstancesCtx(context.Background(), filter)
		if err != nil {
			t.Fatalf("ForceScan twin of %s: %v", body, err)
		}
		gotIDs := make([]string, len(got))
		for i, in := range got {
			gotIDs[i] = in.ID
		}
		wantIDs := make([]string, len(want))
		for i, in := range want {
			wantIDs[i] = in.ID.String()
		}
		if !slices.Equal(gotIDs, wantIDs) {
			t.Fatalf("POST /v1/search %s = %v, its ForceScan twin %v", body, gotIDs, wantIDs)
		}
	})
}
