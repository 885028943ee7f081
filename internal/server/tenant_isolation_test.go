package server

// Tests for the fine-grained half of tenant isolation: the middleware's
// role check says "a publisher may mutate", the handlers' ownership check
// says "only your own namespace's models". These cover the ID-addressed
// routes an attacker would use to reach another tenant's artifacts, the
// bare-name registration policy, quota accounting against the owning
// namespace, and the route → classification coverage table.

import (
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"gallery/internal/api"
	"gallery/internal/tenant"
)

// TestAuthCrossNamespaceMutationForbidden proves a publisher token of one
// namespace cannot mutate another tenant's models or instances through
// ID-addressed routes — the role check alone would admit all of these.
func TestAuthCrossNamespaceMutationForbidden(t *testing.T) {
	h := newAuthHarness(t)
	for _, ns := range []string{"maps", "fraud"} {
		if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: ns}); err != nil {
			t.Fatal(err)
		}
	}
	mapsPub := h.client(h.mint(t, "maps", "trainer", tenant.RolePublisher))
	intruder := h.client(h.mint(t, "fraud", "intruder", tenant.RolePublisher))

	m, err := mapsPub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "maps/eta", Owner: "x", Team: "maps", Domain: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	in, err := mapsPub.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Blob: []byte("weights")})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := mapsPub.VersionHistory(m.ID)
	if err != nil || len(vs) == 0 {
		t.Fatalf("version history: %v (%d records)", err, len(vs))
	}

	wantStatus(t, intruder.DeprecateModel(m.ID), http.StatusForbidden)
	_, err = intruder.EvolveModel(m.ID, "hijacked")
	wantStatus(t, err, http.StatusForbidden)
	wantStatus(t, intruder.Promote(vs[len(vs)-1].ID), http.StatusForbidden)
	wantStatus(t, intruder.PromoteInstance(in.ID), http.StatusForbidden)
	wantStatus(t, intruder.DeprecateInstance(in.ID), http.StatusForbidden)
	_, err = intruder.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Blob: []byte("trojan")})
	wantStatus(t, err, http.StatusForbidden)
	_, err = intruder.InsertMetric(in.ID, "rmse", "training", 0.1)
	wantStatus(t, err, http.StatusForbidden)
	wantStatus(t, intruder.InsertMetrics(in.ID, "training", map[string]float64{"rmse": 0.1}), http.StatusForbidden)
	wantStatus(t, intruder.InsertMetricsBlob(in.ID, "training", []byte("rmse:0.1")), http.StatusForbidden)

	// Dependencies follow the dependent side: the intruder's own model may
	// depend on maps' model (the normal cross-team case)...
	fm, err := intruder.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-2", Name: "fraud/scores", Owner: "y", Team: "fraud", Domain: "fraud"})
	if err != nil {
		t.Fatal(err)
	}
	if err := intruder.AddDependency(fm.ID, m.ID); err != nil {
		t.Fatalf("cross-team upstream dependency: %v", err)
	}
	// ...but it cannot edit the dependency list of a model it doesn't own.
	wantStatus(t, intruder.AddDependency(m.ID, fm.ID), http.StatusForbidden)
	wantStatus(t, intruder.RemoveDependency(m.ID, fm.ID), http.StatusForbidden)

	// Reads stay shared across tenants.
	if _, err := intruder.GetModel(m.ID); err != nil {
		t.Fatalf("cross-tenant read: %v", err)
	}

	// The owner and the instance admin are unaffected.
	if _, err := mapsPub.InsertMetric(in.ID, "rmse", "training", 0.1); err != nil {
		t.Fatalf("owner metric insert: %v", err)
	}
	if err := h.admin.DeprecateInstance(in.ID); err != nil {
		t.Fatalf("admin cross-tenant deprecate: %v", err)
	}
}

// TestAuthBareNameRegistrationScoped pins the default-namespace policy:
// bare (unprefixed) model names live in "default", so only
// default-namespace callers may create them, and registrations are always
// charged to the model's OWNING namespace.
func TestAuthBareNameRegistrationScoped(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "maps"}); err != nil {
		t.Fatal(err)
	}
	mapsPub := h.client(h.mint(t, "maps", "trainer", tenant.RolePublisher))

	// A tenant publisher cannot squat the shared default namespace.
	_, err := mapsPub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "eta", Owner: "x", Team: "maps", Domain: "maps"})
	wantStatus(t, err, http.StatusForbidden)

	// A default-namespace publisher can, and the slot lands on default.
	defPub := h.client(h.mint(t, tenant.DefaultNamespace, "core-train", tenant.RolePublisher))
	if _, err := defPub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "eta", Owner: "x", Team: "core", Domain: "core"}); err != nil {
		t.Fatal(err)
	}
	if u, _ := h.tm.GetUsage(tenant.DefaultNamespace); u.Models != 1 {
		t.Fatalf("default usage = %d models, want 1", u.Models)
	}
	if u, _ := h.tm.GetUsage("maps"); u.Models != 0 {
		t.Fatalf("maps usage = %d models, want 0", u.Models)
	}

	// An instance admin registering on a tenant's behalf charges the
	// tenant, not the admin's own namespace: ownership == accounting.
	if _, err := h.admin.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-2", Name: "maps/eta", Owner: "x", Team: "maps", Domain: "maps"}); err != nil {
		t.Fatal(err)
	}
	if u, _ := h.tm.GetUsage("maps"); u.Models != 1 {
		t.Fatalf("maps usage = %d models after admin registration, want 1", u.Models)
	}

	// A prefix must name an existing namespace, even for admins.
	_, err = h.admin.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-3", Name: "ghost/x", Owner: "x", Team: "g", Domain: "g"})
	wantStatus(t, err, http.StatusNotFound)
}

// TestAuthMetricsBlobQuota closes the quota bypass: bulk metric ingestion
// through /metricsblob is charged against the owning namespace's blob
// byte quota like any other stored bytes.
func TestAuthMetricsBlobQuota(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "maps", MaxBlobBytes: 1000}); err != nil {
		t.Fatal(err)
	}
	pub := h.client(h.mint(t, "maps", "trainer", tenant.RolePublisher))
	m, err := pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "maps/eta", Owner: "x", Team: "maps", Domain: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	in, err := pub.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Blob: make([]byte, 600)})
	if err != nil {
		t.Fatal(err)
	}

	// 600 stored + ~500 of metrics text > 1000: rejected with 413 before
	// any row is written.
	var big strings.Builder
	for i := 0; big.Len() < 500; i++ {
		fmt.Fprintf(&big, "metric_%04d:1\n", i)
	}
	err = pub.InsertMetricsBlob(in.ID, "training", []byte(big.String()))
	wantStatus(t, err, http.StatusRequestEntityTooLarge)

	// A small blob fits and is charged.
	small := []byte("rmse:1.5\n")
	if err := pub.InsertMetricsBlob(in.ID, "training", small); err != nil {
		t.Fatal(err)
	}
	u, err := h.tm.GetUsage("maps")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(600 + len(small))
	if u.BlobBytes != want {
		t.Fatalf("blob usage = %d, want %d", u.BlobBytes, want)
	}

	// A malformed blob fails after reservation; the bytes come back.
	err = pub.InsertMetricsBlob(in.ID, "training", []byte("not a metrics blob"))
	wantStatus(t, err, http.StatusBadRequest)
	if u, _ := h.tm.GetUsage("maps"); u.BlobBytes != want {
		t.Fatalf("blob usage = %d after failed ingest, want %d (reservation leaked)", u.BlobBytes, want)
	}
}

// TestAuthModelQuotaReleasedOnDeprecate proves retiring a model returns
// its slot — a namespace at MaxModels can reclaim capacity — and that
// idempotent re-deprecation does not double-credit.
func TestAuthModelQuotaReleasedOnDeprecate(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "maps", MaxModels: 1}); err != nil {
		t.Fatal(err)
	}
	pub := h.client(h.mint(t, "maps", "trainer", tenant.RolePublisher))
	eta, err := pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "maps/eta", Owner: "x", Team: "maps", Domain: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-2", Name: "maps/surge", Owner: "x", Team: "maps", Domain: "maps"})
	wantStatus(t, err, http.StatusForbidden)

	if err := pub.DeprecateModel(eta.ID); err != nil {
		t.Fatal(err)
	}
	if u, _ := h.tm.GetUsage("maps"); u.Models != 0 {
		t.Fatalf("usage = %d models after deprecation, want 0", u.Models)
	}
	if _, err := pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-2", Name: "maps/surge", Owner: "x", Team: "maps", Domain: "maps"}); err != nil {
		t.Fatalf("register into reclaimed slot: %v", err)
	}

	// Deprecation is idempotent; the release is not repeated.
	if err := pub.DeprecateModel(eta.ID); err != nil {
		t.Fatal(err)
	}
	if u, _ := h.tm.GetUsage("maps"); u.Models != 1 {
		t.Fatalf("usage = %d models after re-deprecation, want 1", u.Models)
	}
	_, err = pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-3", Name: "maps/third", Owner: "x", Team: "maps", Domain: "maps"})
	wantStatus(t, err, http.StatusForbidden)
}

// TestRouteClassificationCoverage pins every route galleryd registers to
// an explicit tenant role class. A new route that is not added here fails
// the test, so it cannot silently land in the wrong class — and
// tenant.Classify's safe default (publisher mutation) means an unlisted
// route can at worst be over-protected, never downgraded.
func TestRouteClassificationCoverage(t *testing.T) {
	h := newAuthHarness(t)

	type class struct {
		role     tenant.Role
		mutation bool
	}
	reader := class{tenant.RoleReader, false}
	pub := class{tenant.RolePublisher, true}
	op := class{tenant.RoleOperator, true}
	opRead := class{tenant.RoleOperator, false}

	want := map[string]class{
		"POST /v1/models":                     pub,
		"GET /v1/models/{id}":                 reader,
		"GET /v1/models":                      reader,
		"POST /v1/models/{id}/evolve":         pub,
		"GET /v1/models/{id}/evolution":       reader,
		"POST /v1/models/{id}/deprecate":      pub,
		"GET /v1/models/{id}/versions":        reader,
		"GET /v1/models/{id}/production":      reader,
		"GET /v1/models/{id}/upstreams":       reader,
		"GET /v1/models/{id}/downstreams":     reader,
		"POST /v1/versions/{id}/promote":      pub,
		"POST /v1/deps":                       pub,
		"DELETE /v1/deps":                     pub,
		"POST /v1/instances":                  pub,
		"GET /v1/instances/{id}":              reader,
		"GET /v1/instances/{id}/blob":         reader,
		"POST /v1/instances/{id}/deprecate":   pub,
		"POST /v1/instances/{id}/promote":     pub,
		"POST /v1/instances/{id}/metrics":     pub,
		"POST /v1/instances/{id}/metricset":   pub,
		"GET /v1/instances/{id}/metrics":      reader,
		"POST /v1/instances/{id}/drift":       reader,
		"POST /v1/instances/{id}/skew":        reader,
		"POST /v1/instances/{id}/metricsblob": pub,
		"POST /v1/health/fleet":               reader,
		"POST /v1/health/observations":        pub,
		"GET /v1/health/models":               reader,
		"GET /v1/health/models/{id}":          reader,
		"POST /v1/search":                     reader,
		"GET /v1/lineage/{base}":              reader,
		"GET /v1/stats":                       reader,
		"GET /v1/healthz":                     reader, // exempted earlier in Authorize; reader if it ever weren't
		"GET /v1/audit":                       reader,
		"POST /v1/audit":                      pub,
		"GET /v1/audit/entity/{id}":           reader,
		"GET /v1/debug/logs":                  reader,
		"GET /v1/debug/metrics":               reader,
		"GET /v1/debug/metrics/prom":          reader,
		"GET /v1/debug/traces":                reader,
		"GET /v1/debug/traces/{id}":           reader,
		"POST /v1/debug/traces":               pub,
		"POST /v1/rules":                      op,
		"GET /v1/rules":                       reader,
		"POST /v1/rules/{id}/select":          op,
		"GET /v1/alerts":                      reader,
		"POST /v1/tenants":                    op,
		"GET /v1/tenants":                     opRead,
		"POST /v1/tenants/{ns}/quotas":        op,
		"POST /v1/tenants/{ns}/tokens":        op,
		"GET /v1/tenants/{ns}/tokens":         opRead,
		"DELETE /v1/tenants/{ns}/tokens/{id}": op,
		"POST /v1/slo":                        op,
		"GET /v1/slo":                         reader,
		"DELETE /v1/slo/{id}":                 op,
		"GET /v1/slo/status":                  reader,
		"POST /v1/incidents":                  op,
		"GET /v1/incidents":                   reader,
		"GET /v1/incidents/{id}":              reader,
		"GET /v1/debug/profile":               reader,
		"POST /v1/debug/profile":              pub,
	}

	wildcard := regexp.MustCompile(`\{[^}]+\}`)
	seen := 0
	for _, pattern := range h.srv.routePatterns {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			t.Fatalf("route pattern %q has no method", pattern)
		}
		exp, ok := want[pattern]
		if !ok {
			t.Errorf("route %q has no classification expectation — classify it explicitly in tenant.Classify and add it here", pattern)
			continue
		}
		seen++
		concrete := wildcard.ReplaceAllString(path, "11111111-2222-3333-4444-555555555555")
		role, mutation := tenant.Classify(method, concrete)
		if role != exp.role || mutation != exp.mutation {
			t.Errorf("Classify(%s %s) = (%v, %v), want (%v, %v)", method, concrete, role, mutation, exp.role, exp.mutation)
		}
	}
	// The harness mounts tenants but not the optional health monitor, so
	// its route set may be smaller than the table — never empty though.
	if seen == 0 {
		t.Fatal("no route patterns recorded")
	}

	// The serving gateway's routes run the same Authorize; pin them too.
	for pattern, exp := range map[string]class{
		"POST /v1/predict/{model}": reader,
		"GET /v1/serving":          reader,
		"GET /v1/healthz":          reader, // exempted earlier in Authorize; reader if it ever weren't
		"GET /v1/debug/bundle":     reader, // incident snapshot pull
		"GET /v1/debug/profile":    reader, // continuous-profiling summaries
	} {
		method, path, _ := strings.Cut(pattern, " ")
		concrete := wildcard.ReplaceAllString(path, "m1")
		role, mutation := tenant.Classify(method, concrete)
		if role != exp.role || mutation != exp.mutation {
			t.Errorf("Classify(%s %s) = (%v, %v), want (%v, %v)", method, concrete, role, mutation, exp.role, exp.mutation)
		}
	}
}
