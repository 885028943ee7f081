package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
)

// parseConfig fills a config from its defaults and args, the way main
// does with the command line.
func parseConfig(t testing.TB, flags func(*flag.FlagSet), args []string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	flags(fs)
	must(t, fs.Parse(args))
}

func gallerydConfig(t testing.TB, args ...string) GallerydConfig {
	var c GallerydConfig
	parseConfig(t, c.Flags, append([]string{"-dump-metrics=false"}, args...))
	return c
}

func galleryserveConfig(t testing.TB, args ...string) GalleryserveConfig {
	var c GalleryserveConfig
	parseConfig(t, c.Flags, args)
	return c
}

// writeTokenFile writes a -token-file seeding one operator token.
func writeTokenFile(t testing.TB, secret string) string {
	t.Helper()
	raw := fmt.Sprintf(`{"tokens":[{"secret":%q,"name":"test","namespace":"default","role":"operator"}]}`, secret)
	path := filepath.Join(t.TempDir(), "tokens.json")
	must(t, os.WriteFile(path, []byte(raw), 0o644))
	return path
}

// pair is both daemons booted in-process and run by Serve on loopback
// addresses, each pointed at the other the way an operator points the
// binaries.
type pair struct {
	gd       *Galleryd
	gw       *Galleryserve
	gdC, gwC *client.Client
}

func bootPair(t *testing.T, token string, gdArgs, gwArgs []string) *pair {
	t.Helper()
	// galleryd is configured with the gateway's URL before the gateway
	// exists, so the gateway's handler is also mounted on a listener bound
	// up front, which galleryd's incident recorder calls.
	front := httptest.NewUnstartedServer(nil)
	tokens := writeTokenFile(t, token)

	gd, err := NewGalleryd(gallerydConfig(t, append([]string{"-token-file", tokens,
		"-incident-gateway", "http://" + front.Listener.Addr().String(), "-incident-gateway-token", token}, gdArgs...)...))
	must(t, err)
	t.Cleanup(func() { gd.Close() })
	gdURL, _ := serveOn(t, gd)

	gw, err := NewGalleryserve(galleryserveConfig(t, append([]string{"-token-file", tokens,
		"-gallery", gdURL, "-token", token}, gwArgs...)...))
	must(t, err)
	// Cleanups run last-registered first: the gateway's HTTP side, then
	// the gateway (its shipper still reaching galleryd), then galleryd.
	t.Cleanup(func() { gw.Close() })
	gwURL, _ := serveOn(t, gw)
	front.Config.Handler = gw.Handler()
	front.Start()
	t.Cleanup(front.Close)

	return &pair{
		gd: gd, gw: gw,
		gdC: client.NewWith(gdURL, client.Options{Token: token}),
		gwC: client.NewWith(gwURL, client.Options{Token: token}),
	}
}

const testToken = "gal_test0123456789abcdef0123456789abcdef"

// TestFlagsMatchGolden pins both command lines to the flag names, types
// and defaults captured from the binaries' -h output before the assembly
// moved here (testdata/*.flags), less galleryserve's -batch, deleted with
// micro-batching; help text may differ. Each config has exactly one field
// per flag.
func TestFlagsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    any
		flags  func(*flag.FlagSet)
		fields int
	}{
		{"galleryd", &GallerydConfig{}, (&GallerydConfig{}).Flags, 19},
		{"galleryserve", &GalleryserveConfig{}, (&GalleryserveConfig{}).Flags, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			tc.flags(fs)
			var help bytes.Buffer
			fs.SetOutput(&help)
			fs.PrintDefaults()
			golden, err := os.ReadFile("testdata/" + tc.name + ".flags")
			must(t, err)
			if got, want := flagSignatures(help.String()), flagSignatures(string(golden)); !slices.Equal(got, want) {
				t.Errorf("flags differ from the golden:\n got  %q\n want %q", got, want)
			}
			n := 0
			fs.VisitAll(func(*flag.Flag) { n++ })
			if f := leafFields(reflect.TypeOf(tc.cfg).Elem()); n != tc.fields || f != tc.fields {
				t.Errorf("%d flags and %d config fields, want %d of each", n, f, tc.fields)
			}
		})
	}
}

// TestBenchmarkFlagsParse holds the command lines the benchmark harness
// starts the binaries with: bench/stack.go (galleryd's -data -auth
// -token-file [-fsync], the gateway's -gallery -token -auth -token-file),
// bench/predict.go (deploy_mixed's -refresh -max-models), bench/procs.go
// (-addr before every list) and the -pprof a profiled run adds to both.
// The benchmark's own short tests never boot the daemons, so a deleted
// flag would otherwise show only when the benchmark runs.
func TestBenchmarkFlagsParse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags func(*flag.FlagSet)
		args  []string
	}{
		{"galleryd", (&GallerydConfig{}).Flags, []string{"-addr", "127.0.0.1:0",
			"-data", "d", "-auth", "-token-file", "t.json", "-fsync", "-pprof"}},
		{"galleryserve", (&GalleryserveConfig{}).Flags, []string{"-addr", "127.0.0.1:0",
			"-gallery", "http://127.0.0.1:1", "-token", "gal_x", "-auth", "-token-file", "t.json",
			"-refresh", "250ms", "-max-models", "64", "-pprof"}},
	} {
		fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		tc.flags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Errorf("%s %v: %v", tc.name, tc.args, err)
		}
	}
}

var defaultRE = regexp.MustCompile(`\(default (.*)\)$`)

// flagSignatures reduces flag.PrintDefaults output to "name type default"
// lines, dropping the help text.
func flagSignatures(help string) []string {
	var out []string
	for _, line := range strings.Split(help, "\n") {
		if strings.HasPrefix(line, "  -") {
			out = append(out, strings.TrimSpace(line))
		} else if m := defaultRE.FindStringSubmatch(line); m != nil && len(out) > 0 {
			out[len(out)-1] += " = " + m[1]
		}
	}
	return out
}

// leafFields counts a struct's fields, counting an embedded struct's
// fields in place of the struct.
func leafFields(t reflect.Type) int {
	n := 0
	for i := range t.NumField() {
		if f := t.Field(i); f.Anonymous {
			n += leafFields(f.Type)
		} else {
			n++
		}
	}
	return n
}

// TestMetricFamiliesCoverGolden drives requestScript against both daemons
// and checks that each one's exposition lists every metric family the
// same script produced before the daemons had registries of their own
// (testdata/*.families, captured from the binaries). A component left on
// the process-wide registry drops out of its daemon's exposition and
// fails here.
func TestMetricFamiliesCoverGolden(t *testing.T) {
	p := bootPair(t, testToken, scriptGallerydArgs, scriptGalleryserveArgs)
	must(t, requestScript(p.gdC, p.gwC))
	for _, tc := range []struct {
		name    string
		c       *client.Client
		foreign string // a family only the other daemon may have
	}{
		{"galleryd", p.gdC, "serve_predictions_total counter"},
		{"galleryserve", p.gwC, "dal_cache_hits_total counter"},
	} {
		raw, err := tc.c.DebugMetricsProm()
		must(t, err)
		got := promFamilies(raw)
		golden, err := os.ReadFile("testdata/" + tc.name + ".families")
		must(t, err)
		for _, want := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
			if !slices.Contains(got, want) {
				t.Errorf("%s: family %q missing from /v1/debug/metrics/prom", tc.name, want)
			}
		}
		if slices.Contains(got, tc.foreign) {
			t.Errorf("%s exposes %q: the daemons share a registry", tc.name, tc.foreign)
		}
	}
}

// TestMetricSeriesMatchGolden drives requestScript against both daemons
// and checks that each one shows exactly the series, JSON snapshot keys
// and exposition lines alike, that the same script showed when labelled
// metrics still had a second, flat-name mechanism (testdata/*.series,
// captured then): nothing was renamed, relabelled or reordered. The one
// series deliberately gone is the gateway's unlabelled
// serve_predict_seconds, which double-counted every prediction beside its
// {namespace,model} children.
func TestMetricSeriesMatchGolden(t *testing.T) {
	removed := map[string]bool{
		"histogram serve_predict_seconds":   true,
		"prom serve_predict_seconds_bucket": true,
		"prom serve_predict_seconds_count":  true,
		"prom serve_predict_seconds_sum":    true,
	}
	p := bootPair(t, testToken, scriptGallerydArgs, scriptGalleryserveArgs)
	must(t, requestScript(p.gdC, p.gwC))
	for name, c := range map[string]*client.Client{"galleryd": p.gdC, "galleryserve": p.gwC} {
		snap, err := c.DebugMetrics()
		must(t, err)
		prom, err := c.DebugMetricsProm()
		must(t, err)
		got, err := metricSeries(snap, prom)
		must(t, err)
		golden, err := os.ReadFile("testdata/" + name + ".series")
		must(t, err)
		var want []string
		for _, s := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
			if !removed[s] {
				want = append(want, s)
			}
		}
		for _, s := range want {
			if _, ok := slices.BinarySearch(got, s); !ok {
				t.Errorf("%s: series %q missing", name, s)
			}
		}
		for _, s := range got {
			if _, ok := slices.BinarySearch(want, s); !ok {
				t.Errorf("%s: series %q not in the golden", name, s)
			}
		}
	}
}

// TestAuditActionsStayBounded: audit_events_total takes its action label
// from POST /v1/audit bodies, so a caller spraying actions must run into
// the family's cap, and an action holding a quote and a newline must come
// out of the exposition escaped, not lost.
func TestAuditActionsStayBounded(t *testing.T) {
	gd, err := NewGalleryd(gallerydConfig(t, "-mem"))
	must(t, err)
	defer gd.Close()
	ts := httptest.NewServer(gd.Handler())
	defer ts.Close()

	var req api.RecordAuditRequest
	for i := range 1100 {
		action := fmt.Sprintf("spray.%d", i)
		if i == 0 {
			action = "say \"hi\"\nbye"
		}
		req.Events = append(req.Events, api.AuditEvent{Action: action, EntityType: "model", EntityID: fmt.Sprintf("e%d", i)})
	}
	body, err := json.Marshal(req)
	must(t, err)
	resp, err := http.Post(ts.URL+"/v1/audit", "application/json", bytes.NewReader(body))
	must(t, err)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/audit = %d", resp.StatusCode)
	}

	prom, err := client.New(ts.URL, nil).DebugMetricsProm()
	must(t, err)
	if err := obs.ValidateExposition(prom); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	children, overflow := 0, false
	for _, line := range strings.Split(string(prom), "\n") {
		if strings.HasPrefix(line, "audit_events_total{") {
			children++
			overflow = overflow || strings.HasPrefix(line, `audit_events_total{action="_overflow"} `)
		}
	}
	if children > obs.DefaultVecCardinality+1 || !overflow {
		t.Errorf("audit_events_total has %d children (overflow %v), want at most %d plus _overflow",
			children, overflow, obs.DefaultVecCardinality)
	}
	if want := `audit_events_total{action="say \"hi\"\nbye"} 1`; !strings.Contains(string(prom), want) {
		t.Errorf("exposition lacks %s", want)
	}
}

// TestGallerydAssembly boots the production galleryd over a data
// directory with -fsync and -auth, restarts it, and checks what only the
// whole assembly can get right.
func TestGallerydAssembly(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-data", dir, "-fsync", "-auth", "-slo-interval", "-1s"}
	gd, err := NewGalleryd(gallerydConfig(t, args...))
	must(t, err)
	// The start-up commit: schemas and the bootstrap token are on disk
	// before the secret is shown.
	if size, durable := gd.meta.LogSize(), gd.meta.LogDurable(); size != durable {
		t.Fatalf("after New: log %d bytes, %d durable", size, durable)
	}
	id, secret := gd.Bootstrap()
	if id == "" || !strings.HasPrefix(secret, "gal_") {
		t.Fatalf("bootstrap = %q, %q; want a minted operator token", id, secret)
	}
	ts := httptest.NewServer(gd.Handler())
	c := client.NewWith(ts.URL, client.Options{Token: secret})
	if _, err := c.CreateNamespace(api.CreateNamespaceRequest{Name: "maps"}); err != nil {
		t.Fatalf("operator-only request with the bootstrap secret: %v", err)
	}
	m, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv", Name: "demand", Domain: "UberX"})
	must(t, err)

	// One request per subsystem lands in this daemon's registry: the SLO
	// evaluator reads the RED series the server records...
	must(t, second(c.CreateSLO(api.CreateSLORequest{Namespace: "default", Kind: "availability", Target: 0.99})))
	gd.slo.Evaluate(context.Background()) // the first tick only anchors the window
	for range 3 {
		must(t, second(c.GetModel(m.ID)))
	}
	if _, err := c.SelectModel("no-such-rule", api.SearchRequest{}); err == nil {
		t.Fatal("selecting with an unknown rule succeeded")
	}
	gd.slo.Evaluate(context.Background())
	st, err := c.SLOStatus()
	if err != nil || len(st) != 1 || st[0].BudgetRemaining >= 1 {
		t.Fatalf("SLO status = %+v, %v; want one objective whose budget the failed request spent", st, err)
	}
	// ...and an incident bundle snapshots the registry the server counts in.
	inc, err := c.TriggerIncident(api.TriggerIncidentRequest{Reason: "assembly"})
	must(t, err)
	detail, err := c.GetIncident(inc.ID)
	must(t, err)
	var snap obs.Snapshot
	must(t, json.Unmarshal(detail.Bundle.Registry.Metrics, &snap))
	for _, prefix := range []string{"http_requests_total", "relstore_ops_total", "audit_events_total", "tenant_http_requests_total", "slo_evaluations_total"} {
		if !hasCounter(snap, prefix) {
			t.Errorf("incident bundle metrics hold no %s counter", prefix)
		}
	}
	ts.Close()
	must(t, gd.Close())

	// A restart recovers the tokens, so nothing new is minted, and the
	// first run's write.
	gd, err = NewGalleryd(gallerydConfig(t, args...))
	must(t, err)
	defer gd.Close()
	if id, secret := gd.Bootstrap(); id != "" || secret != "" {
		t.Fatalf("restart minted bootstrap token %q", id)
	}
	ts = httptest.NewServer(gd.Handler())
	defer ts.Close()
	c = client.NewWith(ts.URL, client.Options{Token: secret})
	if got, err := c.GetModel(m.ID); err != nil || got.Name != "demand" {
		t.Fatalf("model after restart = %+v, %v", got, err)
	}
}

// must fails the test on err.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func hasCounter(snap obs.Snapshot, prefix string) bool {
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) && v > 0 {
			return true
		}
	}
	return false
}

// TestConfigErrors: bad combinations come back as errors from the
// constructor, not as an exit.
func TestConfigErrors(t *testing.T) {
	tokens := writeTokenFile(t, testToken)
	if _, err := NewGalleryd(gallerydConfig(t, "-mem", "-token-file", tokens)); err == nil || !strings.Contains(err.Error(), "-token-file requires -auth") {
		t.Errorf("galleryd -token-file without -auth: err = %v", err)
	}
	if _, err := NewGalleryd(gallerydConfig(t, "-mem", "-trace-sample", "sometimes")); err == nil {
		t.Error("galleryd accepted a bad -trace-sample")
	}
	if _, err := NewGalleryserve(galleryserveConfig(t, "-token-file", tokens)); err == nil || !strings.Contains(err.Error(), "-token-file requires -auth") {
		t.Errorf("galleryserve -token-file without -auth: err = %v", err)
	}
	if _, err := NewGalleryserve(galleryserveConfig(t, "-auth")); err == nil || !strings.Contains(err.Error(), "-auth requires -token-file") {
		t.Errorf("galleryserve -auth without -token-file: err = %v", err)
	}
	// A failure late in the assembly stops what already started: the
	// data directory opens again at once.
	missing := filepath.Join(t.TempDir(), "missing.json")
	dir := t.TempDir()
	if _, err := NewGalleryd(gallerydConfig(t, "-data", dir, "-auth", "-token-file", missing)); err == nil {
		t.Error("galleryd started with a missing token file")
	}
	if _, err := NewGalleryserve(galleryserveConfig(t, "-auth", "-token-file", missing)); err == nil {
		t.Error("galleryserve started with a missing token file")
	}
	gd, err := NewGalleryd(gallerydConfig(t, "-data", dir))
	must(t, err)
	gd.Close()
}

// TestGatewayCloseShipsQueuedTraces: a gateway's Close sends what its
// shipper already holds before it stops. The gateway samples every
// request and is closed while it serves one predict, in the order the
// binary closes: the HTTP drain, then Close. galleryd is slow both to
// serve the model blob, so the predict is still in flight when closing
// begins, and to accept trace shipments, so the gateway's one shipment
// is still on its way when Close is called. When Close returns,
// galleryd's trace buffer must hold the gateway's spans, with nothing
// dropped or failed on the way.
func TestGatewayCloseShipsQueuedTraces(t *testing.T) {
	gd, err := NewGalleryd(gallerydConfig(t, "-mem", "-health-interval", "-1s", "-slo-interval", "-1s"))
	must(t, err)
	defer gd.Close()
	loading := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/blob"):
			select {
			case loading <- struct{}{}:
			default:
			}
			time.Sleep(100 * time.Millisecond)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/debug/traces":
			time.Sleep(200 * time.Millisecond)
		}
		gd.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := client.New(ts.URL, nil)
	m, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-close", Name: "demand", Domain: "UberX"})
	must(t, err)
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	must(t, err)
	must(t, second(c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "first", City: "sf", Blob: blob})))

	gw, err := NewGalleryserve(galleryserveConfig(t, "-gallery", ts.URL, "-trace-sample", "always",
		"-refresh", "-1s", "-health-flush", "-1s"))
	must(t, err)
	gwTS := httptest.NewServer(gw.Handler())
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, gwTS.URL+"/v1/predict/"+m.ID, strings.NewReader(`{"history":[10,20]}`))
	must(t, err)
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	status := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-loading
	gwTS.Close()
	must(t, gw.Close())
	if code := <-status; code != http.StatusOK {
		t.Fatalf("predict = %d", code)
	}

	raw, err := c.DebugTrace(traceID)
	must(t, err)
	var d trace.Detail
	must(t, json.Unmarshal(raw, &d))
	if !slices.Contains(d.Summary.Services, "galleryserve") {
		t.Errorf("galleryd's trace %s covers %v after the gateway closed, want galleryserve's spans too", traceID, d.Summary.Services)
	}
	snap := metricsSnapshot(t, gw.Handler())
	for _, name := range []string{`telemetry_dropped_total{channel="traces"}`, `telemetry_failed_total{channel="traces"}`} {
		if v, ok := snap.Counters[name]; !ok || v != 0 {
			t.Errorf("gateway %s = %d (present %v), want 0", name, v, ok)
		}
	}
}

// TestDefaultSamplerKeepsFastCalleeTraces: under the shipped errslow
// sampler the gateway records every request, but has not decided to keep
// any of them while they run, so its calls to galleryd must not carry the
// sampled flag; galleryd then applies its own tail filter to its half.
// Twenty predicts that each load a distinct model make twenty fast
// galleryd requests from the gateway, and galleryd's trace buffer must
// keep none of them.
func TestDefaultSamplerKeepsFastCalleeTraces(t *testing.T) {
	gd, err := NewGalleryd(gallerydConfig(t, "-mem", "-health-interval", "-1s", "-slo-interval", "-1s"))
	must(t, err)
	defer gd.Close()
	gdTS := httptest.NewServer(gd.Handler())
	defer gdTS.Close()
	c := client.New(gdTS.URL, nil)
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	must(t, err)
	const models = 20
	ids := make([]string, models)
	for i := range ids {
		m, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: fmt.Sprintf("bv-%02d", i), Name: "demand", Domain: "UberX"})
		must(t, err)
		must(t, second(c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "first", City: "sf", Blob: blob})))
		ids[i] = m.ID
	}

	gw, err := NewGalleryserve(galleryserveConfig(t, "-gallery", gdTS.URL, "-refresh", "-1s", "-health-flush", "-1s"))
	must(t, err)
	defer gw.Close()
	gwTS := httptest.NewServer(gw.Handler())
	defer gwTS.Close()
	gwC := client.New(gwTS.URL, nil)
	for _, id := range ids {
		must(t, second(gwC.Predict(id, api.PredictRequest{History: []float64{10, 20}})))
	}
	if got := metricsSnapshot(t, gw.Handler()).Counters["serve_model_loads_total"]; got < models {
		t.Fatalf("the gateway loaded %d models, want %d", got, models)
	}

	raw, err := c.DebugTraces(0)
	must(t, err)
	var list struct {
		Stats trace.Stats `json:"stats"`
	}
	must(t, json.Unmarshal(raw, &list))
	if list.Stats.Completed != 0 {
		t.Errorf("galleryd kept %d traces of fast requests (%+v), want 0", list.Stats.Completed, list.Stats)
	}
}

// TestPprofCPUProfileAtBoot: with -pprof, a CPU profile pull made in a
// daemon's first second answers 200 with a gzipped profile, and so does
// the pull straight after it. Nothing else in the process holds the one
// CPU profile the runtime allows.
func TestPprofCPUProfileAtBoot(t *testing.T) {
	boots := map[string]func() (http.Handler, func() error, error){
		"galleryd": func() (http.Handler, func() error, error) {
			gd, err := NewGalleryd(gallerydConfig(t, "-mem", "-pprof"))
			if err != nil {
				return nil, nil, err
			}
			return gd.Handler(), gd.Close, nil
		},
		"galleryserve": func() (http.Handler, func() error, error) {
			gw, err := NewGalleryserve(galleryserveConfig(t, "-pprof", "-gallery", "http://127.0.0.1:1",
				"-refresh", "-1s", "-health-flush", "-1s"))
			if err != nil {
				return nil, nil, err
			}
			return gw.Handler(), gw.Close, nil
		},
	}
	for name, boot := range boots {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			h, closeFn, err := boot()
			must(t, err)
			defer closeFn()
			ts := httptest.NewServer(h)
			defer ts.Close()
			if since := time.Since(start); since > time.Second {
				t.Fatalf("boot took %v, past the first second", since)
			}
			for i := range 2 {
				resp, err := http.Get(ts.URL + "/v1/debug/pprof/profile?seconds=1")
				must(t, err)
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				must(t, err)
				if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
					t.Fatalf("pull %d: %d, %d bytes %q, want 200 and a gzip body", i+1, resp.StatusCode, len(body), body[:min(len(body), 80)])
				}
			}
		})
	}
}

// TestMutexProfileFraction: -mutex-profile-fraction reaches the runtime,
// which is where -pprof's /mutex profile reads it.
func TestMutexProfileFraction(t *testing.T) {
	old := runtime.SetMutexProfileFraction(-1)
	defer runtime.SetMutexProfileFraction(old)
	gd, err := NewGalleryd(gallerydConfig(t, "-mem", "-mutex-profile-fraction", "5"))
	must(t, err)
	defer gd.Close()
	if got := runtime.SetMutexProfileFraction(-1); got != 5 {
		t.Fatalf("mutex profile fraction = %d, want 5", got)
	}
}

// TestIncidentBundleFromPair triggers an incident on galleryd after
// traffic through both daemons. The bundle must hold the gateway's half,
// pulled over HTTP with -incident-gateway-token, beside galleryd's own.
func TestIncidentBundleFromPair(t *testing.T) {
	p := bootPair(t, testToken, []string{"-mem", "-auth", "-health-interval", "-1s", "-slo-interval", "-1s"},
		[]string{"-auth", "-trace-sample", "always", "-refresh", "-1s", "-health-flush", "-1s"})
	m, err := p.gdC.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-incident", Name: "demand", Domain: "UberX"})
	must(t, err)
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	must(t, err)
	must(t, second(p.gdC.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "first", City: "sf", Blob: blob})))
	must(t, second(p.gwC.Predict(m.ID, api.PredictRequest{History: []float64{10, 20}})))
	must(t, second(p.gdC.CreateSLO(api.CreateSLORequest{Namespace: "default", Kind: "availability", Target: 0.99})))

	inc, err := p.gdC.TriggerIncident(api.TriggerIncidentRequest{Reason: "pair"})
	must(t, err)
	detail, err := p.gdC.GetIncident(inc.ID)
	must(t, err)
	b := detail.Bundle
	if detail.Incident.Partial || b.GatewayError != "" || b.Gateway == nil {
		t.Fatalf("bundle partial (%q) with a live gateway", b.GatewayError)
	}
	if !strings.Contains(b.Gateway.MetricsProm, "serve_predictions_total") {
		t.Error("gateway half lacks serve_predictions_total")
	}
	if !bytes.Contains(b.Gateway.Traces, []byte("POST /v1/predict")) {
		t.Error("gateway half lacks a POST /v1/predict span")
	}
	if len(b.Registry.Logs) == 0 || len(b.Gateway.Logs) == 0 {
		t.Errorf("log tails: registry %d, gateway %d entries, want both non-empty", len(b.Registry.Logs), len(b.Gateway.Logs))
	}
	if b.Registry.Build.GoVersion == "" || b.Gateway.Build.GoVersion == "" {
		t.Errorf("build info not stamped: registry %+v, gateway %+v", b.Registry.Build, b.Gateway.Build)
	}
	if len(b.SLO) == 0 {
		t.Error("SLO section empty")
	}
}

// metricsSnapshot reads a daemon's GET /v1/debug/metrics through h.
func metricsSnapshot(t *testing.T, h http.Handler) obs.Snapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/metrics", nil))
	var snap obs.Snapshot
	must(t, json.Unmarshal(rec.Body.Bytes(), &snap))
	return snap
}

// TestProcessEventsInLogRing: each daemon has one logger, and its ring
// holds what an operator asks of a process rather than one line per
// request. galleryd boots on a fresh data directory with -auth, so it
// replays a WAL and mints a bootstrap token; the gateway presents that
// token and preloads a model galleryd does not have. Both are run by
// Serve, which logs their ready records. After 2,000
// predicts and an incident, each /v1/debug/logs and each half of the
// bundle still holds its daemon's start-up events, no request line, and
// nowhere the bootstrap secret.
func TestProcessEventsInLogRing(t *testing.T) {
	// galleryd is configured with the gateway's URL before the gateway
	// exists, so the gateway's handler is also mounted on a listener bound
	// up front, and galleryd pulls its bundle half through that one.
	front := httptest.NewUnstartedServer(nil)
	gd, err := NewGalleryd(gallerydConfig(t, "-data", t.TempDir(), "-auth", "-incident-gateway", "http://"+front.Listener.Addr().String(),
		"-health-interval", "-1s", "-slo-interval", "-1s"))
	must(t, err)
	t.Cleanup(func() { gd.Close() })
	_, secret := gd.Bootstrap()
	if secret == "" {
		t.Fatal("no bootstrap token minted on a fresh -auth data dir")
	}
	gdURL, _ := serveOn(t, gd)

	unknown := "00000000-0000-4000-8000-00000000dead"
	gw, err := NewGalleryserve(galleryserveConfig(t, "-gallery", gdURL, "-token", secret, "-preload", unknown,
		"-refresh", "-1s", "-health-flush", "-1s"))
	must(t, err)
	t.Cleanup(func() { gw.Close() })
	gwURL, _ := serveOn(t, gw)
	front.Config.Handler = gw.Handler()
	front.Start()
	t.Cleanup(front.Close)

	gdC := client.NewWith(gdURL, client.Options{Token: secret})
	gwC := client.NewWith(gwURL, client.Options{})
	m, err := gdC.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-logs", Name: "demand", Domain: "UberX"})
	must(t, err)
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	must(t, err)
	must(t, second(gdC.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "first", City: "sf", Blob: blob})))
	for range 2000 {
		must(t, second(gwC.Predict(m.ID, api.PredictRequest{History: []float64{10, 20}})))
	}
	inc, err := gdC.TriggerIncident(api.TriggerIncidentRequest{Reason: "logs"})
	must(t, err)
	detail, err := gdC.GetIncident(inc.ID)
	must(t, err)
	b := detail.Bundle
	if b.Gateway == nil {
		t.Fatalf("bundle has no gateway half (%q)", b.GatewayError)
	}

	ring := func(c *client.Client) []obslog.Entry {
		resp, err := c.DebugLogs(client.LogsQuery{})
		must(t, err)
		return resp.Entries
	}
	check := func(where string, entries []obslog.Entry, want ...string) {
		t.Helper()
		have := map[string]int{}
		for _, e := range entries {
			have[e.Msg]++
			text := e.Msg
			for k, v := range e.Attrs {
				text += " " + k + "=" + v
			}
			if strings.Contains(text, secret) {
				t.Errorf("%s: entry %q carries the bootstrap secret", where, e.Msg)
			}
		}
		if n := have["request"]; n > 0 {
			t.Errorf("%s: %d of %d entries are request lines", where, n, len(entries))
		}
		for _, msg := range want {
			if have[msg] == 0 {
				t.Errorf("%s: no %q entry among %d", where, msg, len(entries))
			}
		}
	}
	check("galleryd /v1/debug/logs", ring(gdC), "replayed metadata WAL", "ready")
	check("gateway /v1/debug/logs", ring(gwC), "preload failed", "ready")
	check("bundle registry logs", b.Registry.Logs, "replayed metadata WAL", "ready")
	check("bundle gateway logs", b.Gateway.Logs, "preload failed", "ready")
}

// readyTap is a Daemon whose logger also reports the address each ready
// record names.
type readyTap struct {
	Daemon
	addrs chan string
}

func (r readyTap) Logger() *slog.Logger {
	return slog.New(tapHandler{r.Daemon.Logger().Handler(), r.addrs})
}

type tapHandler struct {
	slog.Handler
	addrs chan string
}

func (h tapHandler) Handle(ctx context.Context, rec slog.Record) error {
	if rec.Message == "ready" {
		rec.Attrs(func(a slog.Attr) bool {
			if a.Key == "addr" {
				h.addrs <- a.Value.String()
			}
			return true
		})
	}
	return h.Handler.Handle(ctx, rec)
}

func (h tapHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return tapHandler{h.Handler.WithAttrs(as), h.addrs}
}

func (h tapHandler) WithGroup(name string) slog.Handler {
	return tapHandler{h.Handler.WithGroup(name), h.addrs}
}

// serveOn runs Serve for d on 127.0.0.1:0 and returns the URL of the
// address its ready record names, and a stop that ends Serve and waits
// for it to return; the test's end stops it too.
func serveOn(t *testing.T, d Daemon) (url string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	tap := readyTap{d, make(chan string, 1)}
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, tap, "127.0.0.1:0") }()
	stop = sync.OnceFunc(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	t.Cleanup(stop)
	select {
	case addr := <-tap.addrs:
		return "http://" + addr, stop
	case err := <-done:
		t.Fatalf("Serve returned before its ready record: %v", err)
		return "", nil
	}
}

// TestServeBindFailureLogsNoReady: a daemon whose address is taken
// returns the bind error from Serve, and neither its logger nor its log
// ring ever says ready.
func TestServeBindFailureLogsNoReady(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	must(t, err)
	defer taken.Close()
	gd, err := NewGalleryd(gallerydConfig(t, "-mem", "-health-interval", "-1s", "-slo-interval", "-1s"))
	must(t, err)
	defer gd.Close()

	tap := readyTap{gd, make(chan string, 1)}
	err = Serve(context.Background(), tap, taken.Addr().String())
	var opErr *net.OpError
	if !errors.As(err, &opErr) || opErr.Op != "listen" {
		t.Fatalf("Serve on a taken port = %v, want the listen error", err)
	}
	select {
	case addr := <-tap.addrs:
		t.Fatalf("ready record logged for %s", addr)
	default:
	}
	rec := httptest.NewRecorder()
	gd.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/logs", nil))
	var logs api.DebugLogsResponse
	must(t, json.Unmarshal(rec.Body.Bytes(), &logs))
	for _, e := range logs.Entries {
		if e.Msg == "ready" {
			t.Fatalf("log ring holds a ready record %v from a daemon that never listened", e.Attrs)
		}
	}
}

// TestShutdownStderrIsJSONLines: galleryd's stderr, the shutdown metrics
// dump included, is one JSON object per line.
func TestShutdownStderrIsJSONLines(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	must(t, err)
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f // the daemon's logger and its dump both take os.Stderr
	defer func() { os.Stderr = stderr }()

	gd, err := NewGalleryd(gallerydConfig(t, "-mem", "-dump-metrics", "-health-interval", "-1s", "-slo-interval", "-1s"))
	must(t, err)
	url, stop := serveOn(t, gd)
	resp, err := http.Get(url + "/v1/healthz") // a request for the dump to count
	must(t, err)
	resp.Body.Close()
	stop()
	must(t, gd.Close())
	os.Stderr = stderr

	raw, err := os.ReadFile(f.Name())
	must(t, err)
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var sawDump bool
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("stderr line %d of %d is not one JSON object (%v): %.120s", i+1, len(lines), err, line)
		}
		_, sawDump = obj["counters"]
	}
	if !sawDump {
		t.Errorf("the last of %d stderr lines is not the metrics dump: %.120s", len(lines), lines[len(lines)-1])
	}
}
