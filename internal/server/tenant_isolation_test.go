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
	"net/url"
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

// routeClass is the tenant role class a route must land in: the least
// role that may call it, and whether it mutates state.
type routeClass struct {
	role     tenant.Role
	mutation bool
}

var (
	classReader = routeClass{tenant.RoleReader, false}
	classPub    = routeClass{tenant.RolePublisher, true}
	classOp     = routeClass{tenant.RoleOperator, true}
	classOpRead = routeClass{tenant.RoleOperator, false}
)

// routeClasses is the class of every route galleryd registers.
var routeClasses = map[string]routeClass{
	"POST /v1/models":                     classPub,
	"GET /v1/models/{id}":                 classReader,
	"GET /v1/models":                      classReader,
	"POST /v1/models/{id}/evolve":         classPub,
	"GET /v1/models/{id}/evolution":       classReader,
	"POST /v1/models/{id}/deprecate":      classPub,
	"GET /v1/models/{id}/versions":        classReader,
	"GET /v1/models/{id}/production":      classReader,
	"GET /v1/models/{id}/upstreams":       classReader,
	"GET /v1/models/{id}/downstreams":     classReader,
	"POST /v1/versions/{id}/promote":      classPub,
	"POST /v1/deps":                       classPub,
	"DELETE /v1/deps":                     classPub,
	"POST /v1/instances":                  classPub,
	"GET /v1/instances/{id}":              classReader,
	"GET /v1/instances/{id}/blob":         classReader,
	"POST /v1/instances/{id}/deprecate":   classPub,
	"POST /v1/instances/{id}/promote":     classPub,
	"POST /v1/instances/{id}/metrics":     classPub,
	"POST /v1/instances/{id}/metricset":   classPub,
	"GET /v1/instances/{id}/metrics":      classReader,
	"POST /v1/instances/{id}/drift":       classReader,
	"POST /v1/instances/{id}/skew":        classReader,
	"POST /v1/instances/{id}/metricsblob": classPub,
	"POST /v1/health/fleet":               classReader,
	"POST /v1/health/observations":        classPub,
	"GET /v1/health/models":               classReader,
	"GET /v1/health/models/{id}":          classReader,
	"POST /v1/search":                     classReader,
	"GET /v1/lineage/{base}":              classReader,
	"GET /v1/stats":                       classReader,
	"GET /v1/healthz":                     classReader, // exempted earlier in Authorize; reader if it ever weren't
	"GET /v1/audit":                       classReader,
	"POST /v1/audit":                      classPub,
	"GET /v1/audit/entity/{id}":           classReader,
	"GET /v1/debug/logs":                  classReader,
	"GET /v1/debug/metrics":               classReader,
	"GET /v1/debug/metrics/prom":          classReader,
	"GET /v1/debug/traces":                classReader,
	"GET /v1/debug/traces/{id}":           classReader,
	"POST /v1/debug/traces":               classPub,
	"POST /v1/rules":                      classOp,
	"GET /v1/rules":                       classReader,
	"POST /v1/rules/{id}/select":          classOp,
	"GET /v1/alerts":                      classReader,
	"POST /v1/tenants":                    classOp,
	"GET /v1/tenants":                     classOpRead,
	"POST /v1/tenants/{ns}/quotas":        classOp,
	"POST /v1/tenants/{ns}/tokens":        classOp,
	"GET /v1/tenants/{ns}/tokens":         classOpRead,
	"DELETE /v1/tenants/{ns}/tokens/{id}": classOp,
	"POST /v1/slo":                        classOp,
	"GET /v1/slo":                         classReader,
	"DELETE /v1/slo/{id}":                 classOp,
	"GET /v1/slo/status":                  classReader,
	"POST /v1/incidents":                  classOp,
	"GET /v1/incidents":                   classReader,
	"GET /v1/incidents/{id}":              classReader,
}

// TestRouteClassificationCoverage pins every route galleryd registers to
// an explicit tenant role class. A new route that is not added to
// routeClasses fails the test, so it cannot silently land in the wrong
// class — and tenant.Classify's safe default (publisher mutation) means an
// unlisted route can at worst be over-protected, never downgraded.
func TestRouteClassificationCoverage(t *testing.T) {
	h := newAuthHarness(t)

	wildcard := regexp.MustCompile(`\{[^}]+\}`)
	seen := 0
	for _, pattern := range h.srv.routePatterns {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			t.Fatalf("route pattern %q has no method", pattern)
		}
		exp, ok := routeClasses[pattern]
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
	if seen != len(routeClasses) {
		t.Errorf("%d of the %d classified routes are registered: a deleted route's row stays in routeClasses", seen, len(routeClasses))
	}

	// The serving gateway's routes run the same Authorize; pin them too.
	for pattern, exp := range map[string]routeClass{
		"POST /v1/predict/{model}": classReader,
		"GET /v1/serving":          classReader,
		"GET /v1/healthz":          classReader, // exempted earlier in Authorize; reader if it ever weren't
		"GET /v1/debug/bundle":     classReader, // incident snapshot pull
	} {
		method, path, _ := strings.Cut(pattern, " ")
		concrete := wildcard.ReplaceAllString(path, "m1")
		role, mutation := tenant.Classify(method, concrete)
		if role != exp.role || mutation != exp.mutation {
			t.Errorf("Classify(%s %s) = (%v, %v), want (%v, %v)", method, concrete, role, mutation, exp.role, exp.mutation)
		}
	}
}

// FuzzRouteClass: no path value can move a route to another class. The
// fuzzed segment, percent-escaped, fills every wildcard of every route
// galleryd registers; wherever the mux still routes the result to that
// route, Classify must put the request in the route's routeClasses row,
// judging the path Authorize hands it.
func FuzzRouteClass(f *testing.F) {
	h := newAuthHarness(f)
	wildcard := regexp.MustCompile(`\{[^}]+\}`)
	f.Fuzz(func(t *testing.T, segment string) {
		escaped := url.PathEscape(segment)
		for _, pattern := range h.srv.routePatterns {
			method, path, _ := strings.Cut(pattern, " ")
			target := wildcard.ReplaceAllLiteralString(path, escaped)
			r, err := http.NewRequest(method, "http://galleryd"+target, nil)
			if err != nil {
				continue
			}
			if _, routed := h.srv.mux.Handler(r); routed != pattern {
				continue
			}
			exp := routeClasses[pattern]
			if role, mutation := tenant.Classify(r.Method, tenant.RoutePath(r.URL)); role != exp.role || mutation != exp.mutation {
				t.Errorf("%s %s routes to %q but Classify = (%v, %v), want (%v, %v)",
					method, target, pattern, role, mutation, exp.role, exp.mutation)
			}
		}
	})
}
