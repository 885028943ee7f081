package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gallery/internal/clock"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
)

// TestGatewayAuthorizer proves the serving gateway enforces the same
// control plane as the registry daemon: tokens gate predictions, the
// health probe stays open, and revocation bites on the next request.
func TestGatewayAuthorizer(t *testing.T) {
	clk := clock.NewMock(time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC))
	tm, err := tenant.Open(relstore.NewMemory(), tenant.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(41), Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	secret, tok, err := tm.MintToken(ctx, tenant.DefaultNamespace, "rt", tenant.RoleReader)
	if err != nil {
		t.Fatal(err)
	}

	gw := New(newFakeSource(), Options{RefreshInterval: -1, Obs: obs.NewRegistry()})
	t.Cleanup(gw.Close)
	ts := httptest.NewServer(NewHandler(gw, WithAuthorizer(tm)))
	t.Cleanup(ts.Close)

	get := func(path, bearer string) int {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bearer != "" {
			req.Header.Set("Authorization", "Bearer "+bearer)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/v1/serving", ""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/serving = %d, want 401", code)
	}
	if code := get("/v1/healthz", ""); code != http.StatusOK {
		t.Fatalf("unauthenticated /v1/healthz = %d, want 200 (probe exemption)", code)
	}
	if code := get("/v1/serving", secret); code != http.StatusOK {
		t.Fatalf("authed /v1/serving = %d, want 200", code)
	}
	// A prediction POST is read-class: the reader token suffices. (404:
	// the fake source has no such model, but the request cleared auth.)
	req, err := http.NewRequest("POST", ts.URL+"/v1/predict/demand", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+secret)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden {
		t.Fatalf("reader POST /v1/predict = %d, want admitted", resp.StatusCode)
	}

	if err := tm.RevokeToken(ctx, tok.ID); err != nil {
		t.Fatal(err)
	}
	if code := get("/v1/serving", secret); code != http.StatusUnauthorized {
		t.Fatalf("revoked token /v1/serving = %d, want 401", code)
	}
}
