package tenant

import (
	"net/http"
	"net/url"
	"testing"
)

// TestClassifyShapes pins the route classifier's exact shapes, in
// particular the adversarial near-misses that substring matching would
// have misclassified: prefix look-alikes must NOT inherit the class of
// the route they resemble, and anything unrecognized must land on the
// safe default (publisher mutation for writes, reader for reads).
func TestClassifyShapes(t *testing.T) {
	cases := []struct {
		method, path string
		role         Role
		mutation     bool
	}{
		// Reads are reader everywhere except the tenant-admin subtree.
		{http.MethodGet, "/v1/models/abc", RoleReader, false},
		{http.MethodHead, "/v1/stats", RoleReader, false},
		{http.MethodGet, "/v1/tenants", RoleOperator, false},
		{http.MethodGet, "/v1/tenants/maps/tokens", RoleOperator, false},

		// Read-shaped POSTs (query bodies, analysis windows).
		{http.MethodPost, "/v1/predict/maps-eta", RoleReader, false},
		{http.MethodPost, "/v1/search", RoleReader, false},
		{http.MethodPost, "/v1/health/fleet", RoleReader, false},
		{http.MethodPost, "/v1/instances/abc/drift", RoleReader, false},
		{http.MethodPost, "/v1/instances/abc/skew", RoleReader, false},

		// Operator mutations.
		{http.MethodPost, "/v1/tenants", RoleOperator, true},
		{http.MethodPost, "/v1/tenants/maps/quotas", RoleOperator, true},
		{http.MethodDelete, "/v1/tenants/maps/tokens/t1", RoleOperator, true},
		{http.MethodPost, "/v1/rules", RoleOperator, true},
		{http.MethodPost, "/v1/rules/r1/select", RoleOperator, true},

		// Everything else that writes is a publisher mutation.
		{http.MethodPost, "/v1/models", RolePublisher, true},
		{http.MethodPost, "/v1/instances/abc/metricsblob", RolePublisher, true},
		{http.MethodDelete, "/v1/deps", RolePublisher, true},

		// Adversarial near-misses: a prefix look-alike of the tenant-admin
		// subtree is an ordinary route...
		{http.MethodGet, "/v1/tenantsfoo", RoleReader, false},
		{http.MethodPost, "/v1/tenantsfoo", RolePublisher, true},
		// ...a drift/skew-looking suffix outside /v1/instances/{id}/ does
		// not read-downgrade...
		{http.MethodPost, "/v1/foo/drift", RolePublisher, true},
		{http.MethodPost, "/v1/instances/abc/extra/skew", RolePublisher, true},
		{http.MethodPost, "/v1/instances//drift", RolePublisher, true},
		// ...and an unknown future write route defaults to the most
		// restrictive non-operator class rather than reader.
		{http.MethodPost, "/v1/shiny/new", RolePublisher, true},
		{http.MethodPut, "/v1/models/abc", RolePublisher, true},
	}
	for _, c := range cases {
		role, mutation := Classify(c.method, c.path)
		if role != c.role || mutation != c.mutation {
			t.Errorf("Classify(%s %s) = (%v, %v), want (%v, %v)",
				c.method, c.path, role, mutation, c.role, c.mutation)
		}
	}
}

// TestRoutePath: the path Classify judges keeps the segments the mux
// routes on. An escaped "/" inside a path value stays escaped, so it
// cannot split the value into more segments, and every other escape is
// undone, as the mux undoes it before matching a route's literal
// segments.
func TestRoutePath(t *testing.T) {
	for raw, want := range map[string]string{
		"/v1/instances/abc/drift":         "/v1/instances/abc/drift",
		"/v1/instances/a%2Fb/drift":       "/v1/instances/a%2Fb/drift",
		"/v1/instances/a%2fb%2Fskew/skew": "/v1/instances/a%2Fb%2Fskew/skew",
		"/v1/%74enants":                   "/v1/tenants",
		"/v1/%74enants/a%2Fb/tokens":      "/v1/tenants/a%2Fb/tokens",
		"/v1/models/a%20b":                "/v1/models/a b",
	} {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := RoutePath(u); got != want {
			t.Errorf("RoutePath(%s) = %q, want %q", raw, got, want)
		}
	}
}
