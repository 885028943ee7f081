package serve_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/daemon"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
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
// Both daemons are the production assembly (internal/daemon), so the
// gateway's spans reach the registry through its telemetry shipper and
// its one client. The auth subtest runs the same request against a
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
	gdArgs := []string{"-trace-sample", "never"}
	var adminToken, gwToken string
	if auth {
		// The gateway presents a publisher token: what POST
		// /v1/debug/traces is classified as.
		adminToken, gwToken = "gal_admin0123456789abcdef0123456789abcdef", "gal_gateway0123456789abcdef0123456789abcd"
		seed := fmt.Sprintf(`{"tokens":[{"secret":%q,"name":"admin","namespace":"default","role":"operator"},`+
			`{"secret":%q,"name":"gateway","namespace":"default","role":"publisher"}]}`, adminToken, gwToken)
		tokens := filepath.Join(t.TempDir(), "tokens.json")
		if err := os.WriteFile(tokens, []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
		gdArgs = append(gdArgs, "-auth", "-token-file", tokens)
	}
	gdURL := bootGalleryd(t, gdArgs...)
	c := client.NewWith(gdURL, client.Options{Token: adminToken})

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
	gw, gwURL := bootGalleryserve(t, "-gallery", gdURL, "-token", gwToken, "-trace-sample", "always",
		"-refresh", "-1s", "-health-flush", "-1s")
	gc := client.New(gwURL, nil)

	resp, err := gc.Predict(m.ID, api.PredictRequest{History: []float64{10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.InstanceID != inst.ID {
		t.Fatalf("prediction served by %s, want %s", resp.InstanceID, inst.ID)
	}

	// The gateway's root span ends (and exports) after the response is
	// written, so poll the registry until the gateway's trace reaches it
	// (polling the gateway would trace the polls), then close the gateway,
	// which flushes its shipper, and read the merged view there.
	var tid string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && tid == "" {
		for _, sum := range traceSummaries(t, c) {
			if slices.Contains(sum.Services, "galleryserve") {
				tid = sum.TraceID
			}
		}
		time.Sleep(time.Millisecond)
	}
	if tid == "" {
		t.Fatal("gateway recorded no trace for the predict request")
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

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
		if raw, err := c.DebugTrace(tid); err == nil {
			if err := json.Unmarshal(raw, &d); err != nil {
				t.Fatal(err)
			}
			if len(d.Summary.Services) == 2 && hasAll(flattenSpans(d.Roots), wantSpans) {
				ok = true
				break
			}
		}
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
	if sums := traceSummaries(t, c); len(sums) != 1 || sums[0].TraceID != tid {
		t.Fatalf("registry holds %d traces, want only %s: %+v", len(sums), tid, sums)
	}
	// Nothing the gateway sent was refused or lost on the way. (The read
	// below is traced too, but its trace ends, and is dropped by the closed
	// shipper, only after the counters are served.)
	if n := sumCounters(t, c, "tenant_unauthenticated_total"); n != 0 {
		t.Fatalf("tenant_unauthenticated_total = %d: the registry refused a gateway shipment", n)
	}
	if n := sumCounters(t, gc, "telemetry_"); n != 0 {
		t.Fatalf("gateway dropped or failed %d telemetry shipments", n)
	}
}

// bootGalleryd starts the production galleryd, in memory and without the
// shutdown dump (later args override those), on a loopback listener, and
// returns its base URL. It closes when the test ends.
func bootGalleryd(t *testing.T, args ...string) string {
	t.Helper()
	var cfg daemon.GallerydConfig
	parseFlags(t, cfg.Flags, append([]string{"-mem", "-dump-metrics=false"}, args...))
	gd, err := daemon.NewGalleryd(cfg)
	return serveDaemon(t, gd, err)
}

// bootGalleryserve starts the production gateway the way bootGalleryd
// does.
func bootGalleryserve(t *testing.T, args ...string) (*daemon.Galleryserve, string) {
	t.Helper()
	var cfg daemon.GalleryserveConfig
	parseFlags(t, cfg.Flags, args)
	gw, err := daemon.NewGalleryserve(cfg)
	return gw, serveDaemon(t, gw, err)
}

// parseFlags fills a daemon config from its flag defaults and args.
func parseFlags(t *testing.T, register func(*flag.FlagSet), args []string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
}

// serveDaemon serves a constructed daemon on a loopback listener until the
// test ends, then closes it.
func serveDaemon(t *testing.T, d interface {
	Handler() http.Handler
	Close() error
}, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// traceSummaries lists the completed traces a daemon's
// GET /v1/debug/traces serves.
func traceSummaries(t *testing.T, c *client.Client) []trace.Summary {
	t.Helper()
	raw, err := c.DebugTraces(0)
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Traces []trace.Summary }
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	return list.Traces
}

// sumCounters totals the counters whose names start with prefix in a
// daemon's GET /v1/debug/metrics.
func sumCounters(t *testing.T, c *client.Client, prefix string) int64 {
	t.Helper()
	raw, err := c.DebugMetrics()
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var n int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

func hasAll(spans map[string]trace.SpanData, names []string) bool {
	for _, n := range names {
		if _, ok := spans[n]; !ok {
			return false
		}
	}
	return true
}
