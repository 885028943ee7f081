package serve_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/serve"
	"gallery/internal/server"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
)

// flattenSpans walks a trace's span tree into a name-indexed map.
func flattenSpans(roots []*trace.Node) map[string]trace.SpanData {
	out := map[string]trace.SpanData{}
	var walk func(ns []*trace.Node)
	walk = func(ns []*trace.Node) {
		for _, n := range ns {
			out[n.Span.Name] = n.Span
			walk(n.Children)
		}
	}
	walk(roots)
	return out
}

// TestCrossProcessTrace drives one cache-miss prediction through the
// serving gateway over real HTTP and checks that it produces ONE trace,
// retrievable from the registry's /v1/debug/traces, whose spans come from
// both processes with correct parent links:
//
//	galleryserve: POST /v1/predict/{model} → serve.predict → serve.load
//	              → client.request (×2: production lookup + blob fetch)
//	galleryd:     GET routes (remote-forced by the propagated traceparent,
//	              despite its own Never sampler) → core/dal/blobstore spans
//
// The gateway's spans reach the registry through the telemetry shipper
// and the gateway's one client — exactly the production wiring of
// cmd/galleryserve. The auth subtest runs the same request against a
// registry that demands bearer tokens (the configuration the benchmark
// boots): the shipment must carry the gateway's token like every other
// call it makes, or the registry refuses it and the trace never merges.
func TestCrossProcessTrace(t *testing.T) {
	t.Run("open", func(t *testing.T) { crossProcessTrace(t, false) })
	t.Run("auth", func(t *testing.T) { crossProcessTrace(t, true) })
}

func crossProcessTrace(t *testing.T, auth bool) {
	// Registry tier: sampler Never, so every galleryd span in the final
	// trace exists only because the gateway's traceparent forced it.
	gdTracer := trace.New(trace.Options{Service: "galleryd", Sampler: trace.Never()})
	clk := clock.NewMock(time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC))
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	gdObs := obs.NewRegistry()
	gdOpts := server.Options{Obs: gdObs, Tracer: gdTracer}
	var adminToken, gwToken string
	if auth {
		tm, err := tenant.Open(relstore.NewMemory(), tenant.Options{UUIDs: uuid.NewSeeded(22), Obs: gdObs})
		if err != nil {
			t.Fatal(err)
		}
		if adminToken, _, err = tm.MintToken(t.Context(), tenant.DefaultNamespace, "admin", tenant.RoleOperator); err != nil {
			t.Fatal(err)
		}
		// Publisher: what POST /v1/debug/traces is classified as.
		if gwToken, _, err = tm.MintToken(t.Context(), tenant.DefaultNamespace, "gateway", tenant.RolePublisher); err != nil {
			t.Fatal(err)
		}
		gdOpts.Tenants = tm
	}
	srv := server.NewWith(reg, nil, nil, gdOpts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := client.NewWith(ts.URL, client.Options{HTTP: ts.Client(), Token: adminToken})

	m, err := c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "bv-demand",
		Project:       "marketplace",
		Name:          "demand",
		Domain:        "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "baseline", City: "sf", Blob: blob})
	if err != nil {
		t.Fatal(err)
	}

	// Serving tier: always-sample, shipping kept traces to the registry
	// through the same client its loads go through.
	gwObs := obs.NewRegistry()
	gwClient := client.NewWith(ts.URL, client.Options{HTTP: ts.Client(), Token: gwToken})
	exporter := obs.NewShipper(gwObs)
	t.Cleanup(exporter.Close)
	gwTracer := trace.New(trace.Options{
		Service: "galleryserve",
		Sampler: trace.Always(),
		Exporter: func(spans []trace.SpanData) {
			exporter.Export(obs.ChannelTraces, func(ctx context.Context) error { return gwClient.ExportSpans(ctx, spans) })
		},
	})
	gw := serve.New(gwClient, serve.Options{RefreshInterval: -1, Obs: gwObs, Tracer: gwTracer})
	t.Cleanup(gw.Close)
	gwTS := httptest.NewServer(serve.NewHandler(gw))
	t.Cleanup(gwTS.Close)
	gc := client.New(gwTS.URL, gwTS.Client())

	resp, err := gc.Predict(m.ID, api.PredictRequest{History: []float64{10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.InstanceID != inst.ID {
		t.Fatalf("prediction served by %s, want %s", resp.InstanceID, inst.ID)
	}

	// The gateway's root span ends (and exports) after the response is
	// written, so poll until its trace appears locally, then flush the
	// exporter and poll the registry's buffer for the merged view.
	var tid string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && tid == "" {
		if sums := gwTracer.Store().Summaries(0); len(sums) > 0 {
			tid = sums[len(sums)-1].TraceID
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if tid == "" {
		t.Fatal("gateway recorded no trace for the predict request")
	}
	exporter.Flush()

	wantSpans := []string{
		// galleryserve half.
		"POST /v1/predict/{model}",
		"serve.predict",
		"serve.load",
		"client.request",
		// galleryd half.
		"GET /v1/models/{id}/production",
		"GET /v1/instances/{id}/blob",
		"core.production_version",
		"core.fetch_blob",
		"dal.get_blob",
		"blobstore.get",
	}
	var (
		d  trace.Detail
		ok bool
	)
	for time.Now().Before(deadline) {
		d, ok = gdTracer.Store().Get(tid)
		if ok && len(d.Summary.Services) == 2 && hasAll(flattenSpans(d.Roots), wantSpans) {
			break
		}
		ok = false
		time.Sleep(time.Millisecond)
	}
	if !ok {
		t.Fatalf("registry never assembled the merged trace %s: %+v", tid, d.Summary)
	}

	spans := flattenSpans(d.Roots)
	if got := d.Summary.Services; len(got) != 2 {
		t.Fatalf("services = %v, want galleryd and galleryserve", got)
	}
	if d.Summary.Errors != 0 {
		t.Fatalf("trace has %d errored spans", d.Summary.Errors)
	}

	// Parent links inside the gateway process.
	gwRoot := spans["POST /v1/predict/{model}"]
	if gwRoot.Service != "galleryserve" || gwRoot.ParentID != "" {
		t.Fatalf("gateway root = %+v, want parentless galleryserve span", gwRoot)
	}
	if spans["serve.predict"].ParentID != gwRoot.SpanID {
		t.Fatal("serve.predict must parent on the gateway's HTTP root")
	}
	if spans["serve.load"].ParentID != spans["serve.predict"].SpanID {
		t.Fatal("serve.load must parent on serve.predict")
	}
	if spans["client.request"].ParentID != spans["serve.load"].SpanID {
		t.Fatal("client.request must parent on serve.load")
	}

	// Across the process boundary: each registry HTTP root's parent must
	// be one of the gateway's client.request spans (there are two — the
	// map keeps one per name, so collect parents from the tree directly).
	clientSpanIDs := map[string]bool{}
	var collect func(ns []*trace.Node)
	collect = func(ns []*trace.Node) {
		for _, n := range ns {
			if n.Span.Name == "client.request" {
				clientSpanIDs[n.Span.SpanID] = true
			}
			collect(n.Children)
		}
	}
	collect(d.Roots)
	for _, route := range []string{"GET /v1/models/{id}/production", "GET /v1/instances/{id}/blob"} {
		s := spans[route]
		if s.Service != "galleryd" {
			t.Fatalf("%s served by %q, want galleryd", route, s.Service)
		}
		if !clientSpanIDs[s.ParentID] {
			t.Fatalf("%s parent %s is not one of the gateway's client.request spans", route, s.ParentID)
		}
	}

	// And inside the registry process.
	if spans["core.fetch_blob"].ParentID != spans["GET /v1/instances/{id}/blob"].SpanID {
		t.Fatal("core.fetch_blob must parent on the registry's blob route span")
	}
	if spans["dal.get_blob"].ParentID != spans["core.fetch_blob"].SpanID {
		t.Fatal("dal.get_blob must parent on core.fetch_blob")
	}
	if spans["blobstore.get"].ParentID != spans["dal.get_blob"].SpanID {
		t.Fatal("blobstore.get must parent on dal.get_blob")
	}

	// The merged trace is what the debug endpoint serves to galleryctl.
	raw, err := c.DebugTrace(tid)
	if err != nil || len(raw) == 0 {
		t.Fatalf("DebugTrace(%s): err=%v len=%d", tid, err, len(raw))
	}
	var served trace.Detail
	if err := json.Unmarshal(raw, &served); err != nil {
		t.Fatal(err)
	}
	if got := served.Summary.Services; !reflect.DeepEqual(got, []string{"galleryd", "galleryserve"}) {
		t.Fatalf("GET /v1/debug/traces/%s services = %v, want both processes", tid, got)
	}
	// The shipment itself is untraced: sent under a span-less context, it
	// forced no trace of its own ingest request onto the registry.
	if sums := gdTracer.Store().Summaries(0); len(sums) != 1 || sums[0].TraceID != tid {
		t.Fatalf("registry holds %d traces, want only %s: %+v", len(sums), tid, sums)
	}
	// Nothing the gateway sent was refused or lost on the way.
	if n := gdObs.Counter("tenant_unauthenticated_total").Value(); n != 0 {
		t.Fatalf("tenant_unauthenticated_total = %d: the registry refused a gateway shipment", n)
	}
	if n := gwObs.SumCounters("telemetry_"); n != 0 {
		t.Fatalf("gateway dropped or failed %d telemetry shipments", n)
	}
}

func hasAll(spans map[string]trace.SpanData, names []string) bool {
	for _, n := range names {
		if _, ok := spans[n]; !ok {
			return false
		}
	}
	return true
}
