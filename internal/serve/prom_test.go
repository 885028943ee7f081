package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gallery/internal/client"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
)

// TestGatewayPromExposition drives real predictions through the serving
// daemon's HTTP front and validates the Prometheus scrape: correct
// content type, byte-valid 0.0.4 text format, and the per-tenant/
// per-model RED series present.
func TestGatewayPromExposition(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "demand", 0, &forecast.Heuristic{K: 2})
	gw := newTestGateway(t, src, Options{})
	ts := httptest.NewServer(NewHandler(gw))
	t.Cleanup(ts.Close)

	// One success and one failure (unknown model → upstream lookup
	// error) so both the request and error counters have series.
	for _, model := range []string{"demand", "ghost"} {
		resp, err := ts.Client().Post(
			ts.URL+"/v1/predict/"+model, "application/json",
			strings.NewReader(`{"history":[1,3]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/debug/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom scrape = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != httpmw.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, httpmw.PromContentType)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	if err := obs.ValidateExposition(payload); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, payload)
	}
	body := string(payload)
	for _, want := range []string{
		`serve_predict_requests_total{namespace="default",model="demand"} 1`,
		`serve_predict_requests_total{namespace="default",model="ghost"} 1`,
		`serve_predict_errors_total{namespace="default",model="ghost"} 1`,
		"# TYPE serve_predict_seconds histogram",
		`tenant_http_requests_total{namespace="default"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// The JSON snapshot keeps its own explicit negotiation headers.
	resp, err = ts.Client().Get(ts.URL + "/v1/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("JSON metrics Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("JSON metrics Cache-Control = %q, want no-store", cc)
	}
}

// TestGatewayTelemetryLossExposition is the self-report: a peer that is
// slow and then failing costs the gateway shipments, and both kinds of
// loss — dropped at a full queue, failed on the wire — read off the
// gateway's own Prometheus scrape, per channel, with HELP text.
func TestGatewayTelemetryLossExposition(t *testing.T) {
	gw := newTestGateway(t, newFakeSource(), Options{})
	ts := httptest.NewServer(NewHandler(gw))
	t.Cleanup(ts.Close)

	entered, gate := make(chan struct{}, 1), make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	t.Cleanup(peer.Close)
	cl := client.NewWith(peer.URL, client.Options{HTTP: peer.Client()})
	ship := obs.NewShipper(gw.obs)
	t.Cleanup(ship.Close)
	export := func() {
		ship.Export(obs.ChannelTraces, func(ctx context.Context) error { return cl.ExportSpans(ctx, nil) })
	}
	dropped := gw.obs.CounterVec("telemetry_dropped_total", []string{"channel"}, 0)

	// One shipment occupies the worker inside the stuck peer; fill the
	// queue behind it until the first drop, then drop nine more.
	export()
	<-entered
	accepted := 1
	for dropped.Peek(obs.ChannelTraces).Value() == 0 {
		if accepted > 1<<16 {
			t.Fatal("queue never filled: Export is not bounded")
		}
		export()
		accepted++
	}
	accepted-- // the export that dropped
	for i := 0; i < 9; i++ {
		export()
	}
	close(gate) // the peer now answers 503 to everything queued
	ship.Flush()

	resp, err := ts.Client().Get(ts.URL + "/v1/debug/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(payload); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, payload)
	}
	body := string(payload)
	for _, want := range []string{
		"# HELP telemetry_dropped_total Telemetry shipments discarded unsent",
		"# HELP telemetry_failed_total Telemetry shipments whose one send attempt failed",
		`telemetry_dropped_total{channel="traces"} 10`,
		fmt.Sprintf(`telemetry_failed_total{channel="traces"} %d`, accepted),
		`telemetry_dropped_total{channel="audit"} 0`,
		`telemetry_failed_total{channel="health"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "serve_audit_report_errors_total") {
		t.Fatal("serve_audit_report_errors_total still exposed: it folded into telemetry_failed_total{channel=\"audit\"}")
	}
}
