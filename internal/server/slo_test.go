package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/serve"
	"gallery/internal/slo"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
)

// newSLOHarness is newHarness plus an SLO service (no auth), so the
// /v1/slo routes are registered.
func newSLOHarness(t *testing.T) *harness {
	t.Helper()
	clk := clock.NewMock(t0)
	o := obs.NewRegistry()
	meta := relstore.NewMemory()
	meta.Instrument(o) // the store's metrics are part of the exposition under test
	reg, err := core.New(meta, blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(51),
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := rules.NewRepo(clk)
	eng := rules.NewEngine(reg, repo, clk)
	// Wire both metric scopes, like a single-process embedding: the
	// namespace RED vectors the server middleware records plus the
	// gateway's predict vectors, so model-scoped objectives are
	// creatable here too.
	red := httpmw.NewRED(o)
	pred := serve.NewPredictRED(o)
	sloSvc, err := slo.Open(relstore.NewMemory(), slo.VecSource{
		Requests: red.Requests, Errors: red.Errors, Latency: red.Latency,
		ModelRequests: pred.Requests, ModelErrors: pred.Errors, ModelLatency: pred.Latency,
	}, slo.Config{
		Clock: clk, UUIDs: uuid.NewSeeded(52), Obs: o, Audit: reg.Audit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(reg, repo, eng, Options{Obs: o, SLO: sloSvc})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &harness{c: client.New(ts.URL, ts.Client()), clk: clk, ts: ts, eng: eng, srv: srv}
}

func TestSLOLifecycleHTTP(t *testing.T) {
	h := newSLOHarness(t)

	avail, err := h.c.CreateSLO(api.CreateSLORequest{
		Namespace: "maps", Kind: "availability", Target: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if avail.ID == "" || avail.Namespace != "maps" || avail.Target != 0.99 {
		t.Fatalf("created SLO = %+v", avail)
	}

	// Latency thresholds travel as milliseconds on the wire and must
	// round-trip exactly.
	lat, err := h.c.CreateSLO(api.CreateSLORequest{
		Namespace: "maps", ModelID: "demand", Kind: "latency",
		Target: 0.95, LatencyThresholdMS: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat.LatencyThresholdMS != 250 {
		t.Fatalf("latency threshold = %v ms, want 250", lat.LatencyThresholdMS)
	}

	objs, err := h.c.ListSLOs()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("ListSLOs = %d objectives, want 2", len(objs))
	}

	sts, err := h.c.SLOStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 {
		t.Fatalf("SLOStatus = %d entries, want 2", len(sts))
	}
	for _, st := range sts {
		if st.Breached {
			t.Fatalf("fresh objective %s reports breached", st.SLO.ID)
		}
	}

	if err := h.c.DeleteSLO(avail.ID); err != nil {
		t.Fatal(err)
	}
	wantStatus(t, h.c.DeleteSLO(avail.ID), http.StatusNotFound)

	// Spec validation surfaces as 400, not 500.
	_, err = h.c.CreateSLO(api.CreateSLORequest{Namespace: "maps", Kind: "availability", Target: 0})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = h.c.CreateSLO(api.CreateSLORequest{Namespace: "maps", Kind: "typo", Target: 0.9})
	wantStatus(t, err, http.StatusBadRequest)
}

// TestMetricsEndpointHeaders pins the content negotiation contract of
// both debug metric endpoints: explicit types, and no-store so proxies
// never serve a stale snapshot to a dashboard.
func TestMetricsEndpointHeaders(t *testing.T) {
	h := newSLOHarness(t)

	resp, err := h.ts.Client().Get(h.ts.URL + "/v1/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("JSON metrics Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("JSON metrics Cache-Control = %q, want no-store", cc)
	}

	resp, err = h.ts.Client().Get(h.ts.URL + "/v1/debug/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != httpmw.PromContentType {
		t.Fatalf("prom Content-Type = %q, want %q", ct, httpmw.PromContentType)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("prom Cache-Control = %q, want no-store", cc)
	}
}

// TestPromExpositionValid scrapes the registry daemon after real
// traffic and validates the payload byte-for-byte against the text
// format rules.
func TestPromExpositionValid(t *testing.T) {
	h := newSLOHarness(t)
	h.registerModel(t, "demand", "maps")
	if _, err := h.c.Stats(); err != nil {
		t.Fatal(err)
	}

	payload, err := h.c.DebugMetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(payload); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, payload)
	}
	body := string(payload)
	for _, want := range []string{
		"# TYPE tenant_http_requests_total counter",
		`tenant_http_requests_total{namespace="default"}`,
		"# TYPE http_requests_total counter",
		"# TYPE relstore_wal_commit_seconds histogram",
		"# TYPE relstore_wal_commits_total counter",
		"# TYPE relstore_wal_records_total counter",
		"# HELP relstore_wal_bytes_total WAL record payload bytes appended",
		"# HELP relstore_wal_append_seconds Time to write one WAL record through to the OS; the fsync is not in it",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestSLOAuth proves objective writes are operator-class while reads
// stay open to readers — same split as every other admin surface.
func TestSLOAuth(t *testing.T) {
	h := newAuthHarness(t)
	reader := h.client(h.mint(t, tenant.DefaultNamespace, "ro", tenant.RoleReader))

	_, err := reader.CreateSLO(api.CreateSLORequest{
		Namespace: "default", Kind: "availability", Target: 0.99,
	})
	wantStatus(t, err, http.StatusForbidden)

	o, err := h.admin.CreateSLO(api.CreateSLORequest{
		Namespace: "default", Kind: "availability", Target: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, reader.DeleteSLO(o.ID), http.StatusForbidden)

	if _, err := reader.ListSLOs(); err != nil {
		t.Fatalf("reader ListSLOs: %v", err)
	}
	if _, err := reader.SLOStatus(); err != nil {
		t.Fatalf("reader SLOStatus: %v", err)
	}
	if err := h.admin.DeleteSLO(o.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSLONamespaceScoping proves objective mutations are namespace-owned
// like every other tenant mutation: an operator declares and deletes
// objectives only in its own namespace, while default-namespace
// operators (instance admins) act across tenants. Without this, an
// operator of one tenant could plant an instantly-breaching objective on
// another tenant's traffic — or delete its objectives to silence alerts.
func TestSLONamespaceScoping(t *testing.T) {
	h := newAuthHarness(t)
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "maps"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.admin.CreateNamespace(api.CreateNamespaceRequest{Name: "fraud"}); err != nil {
		t.Fatal(err)
	}
	mapsOp := h.client(h.mint(t, "maps", "lead", tenant.RoleOperator))

	// Own namespace: allowed.
	own, err := mapsOp.CreateSLO(api.CreateSLORequest{
		Namespace: "maps", Kind: "availability", Target: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Another tenant's namespace: forbidden.
	_, err = mapsOp.CreateSLO(api.CreateSLORequest{
		Namespace: "fraud", Kind: "availability", Target: 0.5,
	})
	wantStatus(t, err, http.StatusForbidden)

	// Deleting another tenant's objective: forbidden, and the objective
	// survives.
	theirs, err := h.admin.CreateSLO(api.CreateSLORequest{
		Namespace: "fraud", Kind: "availability", Target: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, mapsOp.DeleteSLO(theirs.ID), http.StatusForbidden)
	objs, err := h.admin.ListSLOs()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("objectives after forbidden delete = %d, want 2", len(objs))
	}

	// Own objective deletes fine; the instance admin can cross tenants.
	if err := mapsOp.DeleteSLO(own.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.admin.DeleteSLO(theirs.ID); err != nil {
		t.Fatal(err)
	}

	// The auth harness wires only the namespace-scope RED vectors (like
	// the registry daemon), so a model-scoped objective is rejected at
	// create rather than accepted into a permanent no-data state.
	_, err = h.admin.CreateSLO(api.CreateSLORequest{
		Namespace: "maps", ModelID: "demand", Kind: "availability", Target: 0.99,
	})
	wantStatus(t, err, http.StatusBadRequest)
}
