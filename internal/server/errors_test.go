package server

import (
	"net/http"
	"strings"
	"testing"

	"gallery/internal/uuid"
)

// TestHandlerErrorPaths sweeps every route's malformed-id and
// malformed-body failure modes, asserting the uniform error mapping.
func TestHandlerErrorPaths(t *testing.T) {
	h := newHarness(t)
	base := h.ts.URL
	unknown := uuid.New().String()

	cases := []struct {
		method, path string
		body         string
		wantStatus   int
	}{
		// Malformed UUIDs in paths -> 400.
		{"GET", "/v1/models/nope", "", 400},
		{"POST", "/v1/models/nope/evolve", "{}", 400},
		{"GET", "/v1/models/nope/evolution", "", 400},
		{"POST", "/v1/models/nope/deprecate", "{}", 400},
		{"GET", "/v1/models/nope/versions", "", 400},
		{"GET", "/v1/models/nope/production", "", 400},
		{"GET", "/v1/models/nope/upstreams", "", 400},
		{"GET", "/v1/models/nope/downstreams", "", 400},
		{"POST", "/v1/versions/nope/promote", "{}", 400},
		{"GET", "/v1/instances/nope", "", 400},
		{"GET", "/v1/instances/nope/blob", "", 400},
		{"POST", "/v1/instances/nope/deprecate", "{}", 400},
		{"POST", "/v1/instances/nope/metrics", "{}", 400},
		{"POST", "/v1/instances/nope/metricset", "{}", 400},
		{"GET", "/v1/instances/nope/metrics", "", 400},
		{"POST", "/v1/instances/nope/drift", "{}", 400},
		{"POST", "/v1/instances/nope/skew", "{}", 400},
		{"POST", "/v1/instances/nope/metricsblob", "mape:1", 400},

		// Unknown-but-valid UUIDs -> 404.
		{"GET", "/v1/models/" + unknown, "", 404},
		{"GET", "/v1/instances/" + unknown, "", 404},
		{"GET", "/v1/instances/" + unknown + "/blob", "", 404},
		{"POST", "/v1/models/" + unknown + "/deprecate", "{}", 404},
		{"POST", "/v1/versions/" + unknown + "/promote", "{}", 404},

		// Malformed JSON bodies -> 400.
		{"POST", "/v1/models", "{", 400},
		{"POST", "/v1/instances", "{", 400},
		{"POST", "/v1/search", "{", 400},
		{"POST", "/v1/deps", "{", 400},
		{"DELETE", "/v1/deps", "{", 400},
		{"POST", "/v1/rules", "{", 400},
		{"POST", "/v1/health/fleet", "{", 400},

		// Semantic failures.
		{"GET", "/v1/models", "", 400}, // missing base_version_id
		{"POST", "/v1/models", `{"base_version_id":""}`, 400},
		{"POST", "/v1/models", `{"base_version_id":"x","upstreams":["nope"]}`, 400},
		{"POST", "/v1/instances", `{"model_id":"nope"}`, 400},
		{"POST", "/v1/deps", `{"from":"nope","to":"nope"}`, 400},
		{"POST", "/v1/rules/nope/select", "{}", 500}, // unknown rule
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := h.ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
}

// TestDeepRuleExpressionRejected commits a rule whose condition nests
// 10,000 levels deep: the parse must fail as a 400, and the server must
// still answer afterwards rather than die of a stack overflow.
func TestDeepRuleExpressionRejected(t *testing.T) {
	h := newHarness(t)
	const n = 10_000
	when := strings.Repeat("(", n) + "metrics.mape > 1" + strings.Repeat(")", n)
	body := `{"author":"a","message":"m","upserts":[{"uuid":"deep","team":"t","kind":"action",` +
		`"when":"` + when + `","callback_actions":[{"action":"alert","params":{"message":"x"}}]}]}`
	if code := h.doRaw(t, "POST", "/v1/rules", body); code != http.StatusBadRequest {
		t.Fatalf("POST /v1/rules with %d nested levels = %d, want 400", n, code)
	}
	if code := h.doRaw(t, "GET", "/v1/rules", ""); code != http.StatusOK {
		t.Fatalf("GET /v1/rules after the deep commit = %d, want 200", code)
	}
}

// TestRuleEndpointsDisabledWithoutEngine verifies storage-only deployments
// (tiers 1–3) reject rule traffic cleanly.
func TestRuleEndpointsDisabledWithoutEngine(t *testing.T) {
	h2 := newStorageOnlyHarness(t)
	for _, path := range []string{"/v1/rules"} {
		resp, err := http.Get(h2.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("GET %s without engine: %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(h2.ts.URL+"/v1/rules/x/select", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("select without engine: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(h2.ts.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("alerts without engine: %d, want 404", resp.StatusCode)
	}
}
