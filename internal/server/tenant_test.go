package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/incident"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	"gallery/internal/obs/profile"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/slo"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
)

// authHarness is the multi-tenant variant of the test harness: the same
// registry stack fronted by a tenant.Manager, plus one client per role.
type authHarness struct {
	ts    *httptest.Server
	srv   *Server
	tm    *tenant.Manager
	obs   *obs.Registry
	clk   *clock.Mock
	admin *client.Client // default-ns operator
}

func newAuthHarness(t *testing.T) *authHarness {
	t.Helper()
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(31),
	})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewRegistry()
	tm, err := tenant.Open(relstore.NewMemory(), tenant.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(32),
		Obs:   o,
		Audit: reg.Audit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := rules.NewRepo(clk)
	eng := rules.NewEngine(reg, repo, clk)
	// The evaluator needs a namespace-scope source or Create rejects
	// every objective; use the same RED vectors the middleware records.
	red := httpmw.NewRED(o)
	sloSvc, err := slo.Open(relstore.NewMemory(), slo.VecSource{
		Requests: red.Requests, Errors: red.Errors, Latency: red.Latency,
	}, slo.Config{Clock: clk, Obs: o, UUIDs: uuid.NewSeeded(34)})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := incident.Open(reg.DAL(), incident.Config{
		Obs: o, Audit: reg.Audit(), Clock: clk, UUIDs: uuid.NewSeeded(35),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(reg, repo, eng, Options{Obs: o, Tenants: tm, SLO: sloSvc, Incidents: rec,
		Profiles: profile.NewFleet(0)})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	h := &authHarness{ts: ts, srv: srv, tm: tm, obs: o, clk: clk}
	adminSecret := h.mint(t, tenant.DefaultNamespace, "root", tenant.RoleOperator)
	h.admin = h.client(adminSecret)
	return h
}

func (h *authHarness) mint(t *testing.T, ns, name string, role tenant.Role) string {
	t.Helper()
	secret, _, err := h.tm.MintToken(context.Background(), ns, name, role)
	if err != nil {
		t.Fatal(err)
	}
	return secret
}

func (h *authHarness) client(secret string) *client.Client {
	return client.NewWith(h.ts.URL, client.Options{
		HTTP: h.ts.Client(), Token: secret, Retries: 0,
	})
}

func wantStatus(t *testing.T, err error, status int) *client.APIError {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError with status %d", err, status)
	}
	if apiErr.Status != status {
		t.Fatalf("status = %d (%s), want %d", apiErr.Status, apiErr.Msg, status)
	}
	return apiErr
}

func TestAuthNoToken(t *testing.T) {
	h := newAuthHarness(t)
	anon := client.New(h.ts.URL, h.ts.Client())
	_, err := anon.Stats()
	wantStatus(t, err, http.StatusUnauthorized)
	if got := h.obs.Counter("tenant_unauthenticated_total").Value(); got == 0 {
		t.Fatal("tenant_unauthenticated_total not incremented")
	}
	// The health probe path stays exempt so load balancers keep working:
	// it passes the auth gate without a token and reaches the router (the
	// registry daemon has no such route, so 404 — anything but 401).
	resp, err := h.ts.Client().Get(h.ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		t.Fatal("healthz rejected with 401 under auth; probe exemption broken")
	}
}

func TestAuthReaderCannotMutate(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "maps"}); err != nil {
		t.Fatal(err)
	}
	reader := h.client(h.mint(t, "maps", "dash", tenant.RoleReader))

	_, err := reader.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "maps/eta", Owner: "x", Team: "maps", Domain: "maps"})
	wantStatus(t, err, http.StatusForbidden)
	if got := h.obs.Counter("tenant_forbidden_total").Value(); got != 1 {
		t.Fatalf("tenant_forbidden_total = %d, want 1", got)
	}
	// The denial is on the audit trail with the verified identity.
	h.srv.Flush()
	evs, err := h.admin.AuditEvents(client.AuditQuery{Action: "auth.denied"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("auth.denied events = %d, want 1", len(evs))
	}
	if evs[0].Actor != "maps/dash" || evs[0].EntityID != "maps" {
		t.Fatalf("denial event = %+v", evs[0])
	}
	// Reads still work for the same token.
	if _, err := reader.Stats(); err != nil {
		t.Fatal(err)
	}

	// A publisher can mutate models but not the control plane.
	pub := h.client(h.mint(t, "maps", "trainer", tenant.RolePublisher))
	if _, err := pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "maps/eta", Owner: "x", Team: "maps", Domain: "maps"}); err != nil {
		t.Fatal(err)
	}
	_, err = pub.CreateNamespace(api.CreateNamespaceRequest{Name: "rogue"})
	wantStatus(t, err, http.StatusForbidden)
}

func TestAuthRevokedTokenRejectedNextRequest(t *testing.T) {
	h := newAuthHarness(t)
	secret, tok, err := h.tm.MintToken(context.Background(), tenant.DefaultNamespace, "temp", tenant.RoleReader)
	if err != nil {
		t.Fatal(err)
	}
	c := h.client(secret)
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	// Revoke through the admin API, then the very next request must fail —
	// no grace period, including for the server's resolution cache.
	if err := h.admin.RevokeToken(tenant.DefaultNamespace, tok.ID); err != nil {
		t.Fatal(err)
	}
	_, err = c.Stats()
	wantStatus(t, err, http.StatusUnauthorized)
}

func TestAuthRateLimit(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "noisy", RatePerSec: 1, Burst: 3}); err != nil {
		t.Fatal(err)
	}
	c := h.client(h.mint(t, "noisy", "flood", tenant.RoleReader))
	for i := 0; i < 3; i++ {
		if _, err := c.Stats(); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	_, err := c.Stats()
	apiErr := wantStatus(t, err, http.StatusTooManyRequests)
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", apiErr.RetryAfter)
	}
	if got := h.obs.Counter("tenant_rate_limited_total").Value(); got != 1 {
		t.Fatalf("tenant_rate_limited_total = %d, want 1", got)
	}
	// The mock clock advances; the bucket refills and admits again.
	h.clk.Advance(2 * time.Second)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	// Other namespaces never queued behind the noisy one.
	if _, err := h.admin.Stats(); err != nil {
		t.Fatalf("quiet tenant: %v", err)
	}
}

func TestAuthModelQuota(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "maps", MaxModels: 1}); err != nil {
		t.Fatal(err)
	}
	pub := h.client(h.mint(t, "maps", "trainer", tenant.RolePublisher))
	if _, err := pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "maps/eta", Owner: "x", Team: "maps", Domain: "maps"}); err != nil {
		t.Fatal(err)
	}
	_, err := pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "maps/surge", Owner: "x", Team: "maps", Domain: "maps"})
	wantStatus(t, err, http.StatusForbidden)
	if got := h.obs.Counter("tenant_quota_denied_total").Value(); got != 1 {
		t.Fatalf("tenant_quota_denied_total = %d, want 1", got)
	}
	// A publisher cannot register into someone else's namespace either.
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "fraud"}); err != nil {
		t.Fatal(err)
	}
	_, err = pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "fraud/scores", Owner: "x", Team: "maps", Domain: "maps"})
	wantStatus(t, err, http.StatusForbidden)
}

func TestAuthBlobQuotaAndRelease(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "maps", MaxBlobBytes: 1000}); err != nil {
		t.Fatal(err)
	}
	pub := h.client(h.mint(t, "maps", "trainer", tenant.RolePublisher))
	m, err := pub.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "maps/eta", Owner: "x", Team: "maps", Domain: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 600)
	if _, err := pub.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Blob: blob}); err != nil {
		t.Fatal(err)
	}
	// 600 + 600 > 1000: over quota, distinct 413 status.
	_, err = pub.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Blob: blob})
	wantStatus(t, err, http.StatusRequestEntityTooLarge)

	// A failed upload (bad model id) must release its reservation: usage
	// stays at the one stored blob, and the headroom is still usable.
	_, err = pub.UploadInstance(api.UploadInstanceRequest{ModelID: "no-such-model", Blob: make([]byte, 300)})
	wantStatus(t, err, http.StatusBadRequest)
	u, err := h.tm.GetUsage("maps")
	if err != nil {
		t.Fatal(err)
	}
	if u.BlobBytes != 600 {
		t.Fatalf("blob usage = %d after failed upload, want 600 (reservation leaked)", u.BlobBytes)
	}
	if _, err := pub.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Blob: make([]byte, 300)}); err != nil {
		t.Fatalf("upload within released headroom: %v", err)
	}
}

// TestAuthActorSpoofIgnored proves a client-declared X-Gallery-Actor header
// cannot forge audit attribution once auth is on: the trail records the
// verified token identity.
func TestAuthActorSpoofIgnored(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "maps"}); err != nil {
		t.Fatal(err)
	}
	secret := h.mint(t, "maps", "trainer", tenant.RolePublisher)
	spoofer := client.NewWith(h.ts.URL, client.Options{
		HTTP: h.ts.Client(), Token: secret, Actor: "legal@uber",
	})
	m, err := spoofer.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "maps/eta", Owner: "x", Team: "maps", Domain: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	h.srv.Flush()
	evs, err := h.admin.AuditEvents(client.AuditQuery{Model: m.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no audit events for registered model")
	}
	for _, ev := range evs {
		if ev.Actor != "maps/trainer" {
			t.Fatalf("audit actor = %q, want verified identity maps/trainer", ev.Actor)
		}
	}
	if got := h.obs.Counter("tenant_actor_header_ignored_total").Value(); got == 0 {
		t.Fatal("tenant_actor_header_ignored_total not incremented")
	}
}

// TestAnonymousActorWithoutAuth covers the auth-off fallback: mutations
// with no X-Gallery-Actor are attributed to "anonymous" and counted.
func TestAnonymousActorWithoutAuth(t *testing.T) {
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(33),
	})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewRegistry()
	srv := NewWith(reg, nil, nil, Options{Obs: o})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client()) // no Actor, no Token
	m, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-1", Name: "eta", Owner: "x", Team: "maps", Domain: "maps"})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	evs, err := c.AuditEvents(client.AuditQuery{Model: m.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no audit events for registered model")
	}
	for _, ev := range evs {
		if ev.Actor != "anonymous" {
			t.Fatalf("audit actor = %q, want anonymous", ev.Actor)
		}
	}
	if got := o.Counter("audit_anonymous_actor_total").Value(); got == 0 {
		t.Fatal("audit_anonymous_actor_total not incremented")
	}
}

// TestTenantAdminScoping exercises the /v1/tenants authorization matrix:
// namespace operators manage only their own tokens; instance admins
// (default-ns operators) manage everything.
func TestTenantAdminScoping(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "maps"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "fraud"}); err != nil {
		t.Fatal(err)
	}
	mapsOp := h.client(h.mint(t, "maps", "lead", tenant.RoleOperator))

	// Namespace operator mints within its own namespace...
	minted, err := mapsOp.MintToken("maps", api.MintTokenRequest{Name: "ci", Role: "reader"})
	if err != nil {
		t.Fatal(err)
	}
	if minted.Token.Namespace != "maps" || minted.Secret == "" {
		t.Fatalf("minted = %+v", minted)
	}
	// ...but not in another tenant's, and cannot create namespaces.
	_, err = mapsOp.MintToken("fraud", api.MintTokenRequest{Name: "spy", Role: "reader"})
	wantStatus(t, err, http.StatusForbidden)
	_, err = mapsOp.CreateNamespace(api.CreateNamespaceRequest{Name: "more"})
	wantStatus(t, err, http.StatusForbidden)

	// Listing is scoped to the caller's namespace for non-admins.
	nss, err := mapsOp.Namespaces()
	if err != nil {
		t.Fatal(err)
	}
	if len(nss) != 1 || nss[0].Name != "maps" {
		t.Fatalf("scoped namespace list = %+v", nss)
	}
	all, err := h.admin.Namespaces()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 { // default, maps, fraud
		t.Fatalf("admin namespace list = %d entries, want 3", len(all))
	}

	// Token listing and revocation stay inside the namespace too: the maps
	// operator cannot revoke a fraud token even by guessed ID.
	fraudSecret, fraudTok, err := h.tm.MintToken(context.Background(), "fraud", "scorer", tenant.RoleReader)
	if err != nil {
		t.Fatal(err)
	}
	err = mapsOp.RevokeToken("maps", fraudTok.ID)
	wantStatus(t, err, http.StatusNotFound)
	if _, ok := h.tm.Resolve(fraudSecret); !ok {
		t.Fatal("fraud token was revoked across namespaces")
	}
}
