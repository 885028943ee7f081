package tenant

import (
	"context"
	"net/http"
	"net/url"
	"strings"

	"gallery/internal/audit"
	"gallery/internal/obs/httpmw"
)

// Authorize is the httpmw.Authorizer both daemons mount when auth is on.
// The pipeline per request: bearer token → identity (401 without one) →
// namespace rate limit (429 + Retry-After) → role check against the
// route class (403, audited) → admit. Read-class requests admit with no
// context mutation at all, which is what keeps the authed predict path
// at zero extra allocations.
func (m *Manager) Authorize(r *http.Request) httpmw.Decision {
	// Liveness stays unauthenticated: load balancers probe it with no
	// credentials, and it leaks nothing.
	if r.Method == http.MethodGet && r.URL.Path == "/v1/healthz" {
		return httpmw.Decision{}
	}
	ts, ok := m.resolveState(BearerSecret(r))
	if !ok {
		m.cUnauthenticated.Inc()
		return httpmw.Decision{Status: http.StatusUnauthorized, Reason: "missing or invalid bearer token"}
	}
	if ok, retry := ts.ns.limiter.allow(m.clk.Now()); !ok {
		m.cRateLimited.Inc()
		secs := int((retry + 999_999_999) / 1_000_000_000) // ceil to whole seconds
		if secs < 1 {
			secs = 1
		}
		return httpmw.Decision{
			Status:     http.StatusTooManyRequests,
			Reason:     "namespace " + ts.id.Namespace + " rate limit exceeded",
			RetryAfter: secs,
		}
	}
	need, mutation := Classify(r.Method, RoutePath(r.URL))
	if ts.id.Role < need {
		m.cForbidden.Inc()
		m.recordDenied(r, ts.id)
		return httpmw.Decision{
			Status: http.StatusForbidden,
			Reason: ts.id.Role.String() + " token cannot " + r.Method + " " + r.URL.Path,
		}
	}
	if mutation {
		// A self-declared actor header is meaningless under auth: the
		// verified identity wins, and we count the attempt so operators can
		// find clients still sending it.
		if r.Header.Get("X-Gallery-Actor") != "" {
			m.cActorIgnored.Inc()
		}
		return httpmw.Decision{Actor: ts.id.Actor}
	}
	return httpmw.Decision{}
}

// BearerSecret extracts the token secret from an Authorization header,
// allocation-free ("Bearer <secret>"; empty when absent or malformed).
func BearerSecret(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) > len(prefix) && h[:len(prefix)] == prefix {
		return h[len(prefix):]
	}
	return ""
}

// NamespaceOf resolves a request to its tenant namespace, or "" for
// unauthenticated callers. It is the httpmw TenantOf hook behind the
// per-tenant RED vectors: one sync.Map load, no allocation, safe on the
// predict hot path.
func (m *Manager) NamespaceOf(r *http.Request) string {
	ts, ok := m.resolveState(BearerSecret(r))
	if !ok {
		return ""
	}
	return ts.id.Namespace
}

// ResolveRequest authenticates a request's bearer token for handlers
// that need the caller's identity (quota charging, tenant admin scope).
// It re-reads the secret cache, so it costs one sync.Map load.
func (m *Manager) ResolveRequest(r *http.Request) (Identity, bool) {
	return m.Resolve(BearerSecret(r))
}

// Classify maps a route onto the least role that may call it and whether
// it mutates state (mutations get the verified actor stamped into the
// request context for the audit trail). Exported so each daemon's tests
// can assert every route it registers against this table — a new route
// that nobody classified explicitly lands in the publisher mutation
// class, the safe default: it can only be *downgraded* to reader by an
// explicit case here.
//
// Role matrix:
//
//	reader     all GETs; predict, search, drift/skew analyses, fleet health
//	publisher  model/instance lifecycle: register, evolve, deprecate,
//	           upload, promote, deps, metrics, health ingest, audit/trace
//	           ingest
//	operator   rules (commit/select) and /v1/tenants administration
func Classify(method, path string) (need Role, mutation bool) {
	if method == http.MethodGet || method == http.MethodHead {
		// Token listings expose credential metadata; managing tenants —
		// even reading them — is operator work.
		if isTenantAdminPath(path) {
			return RoleOperator, false
		}
		return RoleReader, false
	}
	switch {
	case strings.HasPrefix(path, "/v1/predict/"),
		path == "/v1/search",
		path == "/v1/health/fleet",
		isInstanceAnalysisPath(path):
		// POST-shaped queries: they compute, they don't mutate.
		return RoleReader, false
	case isTenantAdminPath(path),
		isSLOAdminPath(path),
		path == "/v1/incidents",
		path == "/v1/rules",
		strings.HasPrefix(path, "/v1/rules/"):
		// Triggering an incident capture allocates blobstore space and
		// freezes diagnostic state — operator work, like declaring SLOs.
		return RoleOperator, true
	}
	return RolePublisher, true
}

// RoutePath is the path Classify judges for a request URL: its path cut
// into the segments the mux routes on, each unescaped. It is u.Path unless
// an escaped "/" sits inside a segment; such a slash stays "%2F", so a
// path value holding one cannot change the route's shape. Built only for
// such a path, so the common case costs no allocation.
func RoutePath(u *url.URL) string {
	if !strings.Contains(u.RawPath, "%2F") && !strings.Contains(u.RawPath, "%2f") {
		return u.Path
	}
	segs := strings.Split(u.RawPath, "/")
	for i, seg := range segs {
		if s, err := url.PathUnescape(seg); err == nil {
			segs[i] = strings.ReplaceAll(s, "/", "%2F")
		}
	}
	return strings.Join(segs, "/")
}

// isSLOAdminPath matches /v1/slo and its subtree — and nothing else.
// Declaring or deleting objectives changes what pages people, so writes
// are operator work; GET /v1/slo[/status] stays in the reader class via
// the method check above.
func isSLOAdminPath(path string) bool {
	return path == "/v1/slo" || strings.HasPrefix(path, "/v1/slo/")
}

// isTenantAdminPath matches /v1/tenants and its subtree — and nothing
// else: a sibling route like /v1/tenantsfoo must not inherit the
// operator class.
func isTenantAdminPath(path string) bool {
	return path == "/v1/tenants" || strings.HasPrefix(path, "/v1/tenants/")
}

// isInstanceAnalysisPath matches exactly /v1/instances/{id}/drift and
// /v1/instances/{id}/skew. The full shape is required — a future route
// that merely *ends* in "/drift" must not silently drop to the reader
// class.
func isInstanceAnalysisPath(path string) bool {
	rest, ok := strings.CutPrefix(path, "/v1/instances/")
	if !ok {
		return false
	}
	i := strings.IndexByte(rest, '/')
	if i <= 0 {
		return false
	}
	tail := rest[i+1:]
	return tail == "drift" || tail == "skew"
}

// recordDenied emits the authz-denial audit event: who was refused what.
func (m *Manager) recordDenied(r *http.Request, id Identity) {
	if m.aud == nil {
		return
	}
	_ = m.aud.Record(context.Background(), audit.Event{
		Actor:      id.Actor,
		Action:     audit.ActionAuthDenied,
		EntityType: audit.EntityNamespace,
		EntityID:   id.Namespace,
		Detail:     r.Method + " " + r.URL.Path + " (role " + id.Role.String() + ")",
	})
}
