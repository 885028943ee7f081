package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/uuid"
)

// newTracedHarness is newHarness with an explicit tracer wired in.
func newTracedHarness(t *testing.T, tr *trace.Tracer) *harness {
	t.Helper()
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := rules.NewRepo(clk)
	eng := rules.NewEngine(reg, repo, clk)
	srv := NewWith(reg, repo, eng, Options{Obs: obs.NewRegistry(), Tracer: tr})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &harness{c: client.New(ts.URL, ts.Client()), clk: clk, ts: ts, eng: eng, srv: srv}
}

// collectNodes flattens a span tree into a name-indexed map (last node
// wins per name, which is fine for the single-shot requests tested here).
func collectNodes(roots []*trace.Node) map[string]*trace.Node {
	out := map[string]*trace.Node{}
	var walk func(ns []*trace.Node)
	walk = func(ns []*trace.Node) {
		for _, n := range ns {
			out[n.Span.Name] = n
			walk(n.Children)
		}
	}
	walk(roots)
	return out
}

// TestTraceparentThroughHTTPStack sends a real HTTP request carrying a
// sampled W3C traceparent through the full server stack and checks that
// the handler continues the caller's trace: same trace ID, root span
// parented on the caller's span ID, renamed to the mux route, with the
// storage layers' child spans linked underneath.
func TestTraceparentThroughHTTPStack(t *testing.T) {
	tr := trace.New(trace.Options{Service: "galleryd", Sampler: trace.Always()})
	h := newTracedHarness(t, tr)
	m := h.registerModel(t, "Traced Model", "demand")
	in := h.upload(t, m.ID, "san_francisco", []byte("serialized-model-bytes"))

	const callerTrace = "0af7651916cd43dd8448eb211c80319c"
	const callerSpan = "b7ad6b7169203331"
	req, err := http.NewRequest(http.MethodGet, h.ts.URL+"/v1/instances/"+in.ID+"/blob", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blob fetch: status %d", resp.StatusCode)
	}

	d, ok := tr.Store().Get(callerTrace)
	if !ok {
		t.Fatalf("no trace recorded under the caller's trace ID %s", callerTrace)
	}
	if len(d.Roots) != 1 {
		t.Fatalf("got %d local roots, want 1", len(d.Roots))
	}
	root := d.Roots[0]
	if root.Span.Name != "GET /v1/instances/{id}/blob" {
		t.Fatalf("root span = %q, want the mux route pattern", root.Span.Name)
	}
	if root.Span.ParentID != callerSpan {
		t.Fatalf("root parent = %q, want the caller's span %s", root.Span.ParentID, callerSpan)
	}
	if root.Span.Service != "galleryd" {
		t.Fatalf("root service = %q", root.Span.Service)
	}

	nodes := collectNodes(d.Roots)
	for _, name := range []string{"core.fetch_blob", "dal.get_blob", "blobstore.get"} {
		if _, ok := nodes[name]; !ok {
			t.Fatalf("span %q missing from trace; have %v", name, spanNames(nodes))
		}
	}
	if nodes["core.fetch_blob"].Span.ParentID != root.Span.SpanID {
		t.Fatal("core.fetch_blob must be a direct child of the HTTP root span")
	}
	if nodes["dal.get_blob"].Span.ParentID != nodes["core.fetch_blob"].Span.SpanID {
		t.Fatal("dal.get_blob must be a child of core.fetch_blob")
	}
	if nodes["blobstore.get"].Span.ParentID != nodes["dal.get_blob"].Span.SpanID {
		t.Fatal("blobstore.get must be a child of dal.get_blob")
	}

	// The debug endpoints serve what the store holds.
	raw, err := h.c.DebugTrace(callerTrace)
	if err != nil {
		t.Fatalf("DebugTrace: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("DebugTrace returned an empty body")
	}
	list, err := h.c.DebugTraces(5)
	if err != nil {
		t.Fatalf("DebugTraces: %v", err)
	}
	if len(list) == 0 {
		t.Fatal("DebugTraces returned an empty body")
	}
}

// TestSearchTraceReachesTheStore: a sampled search is attributed down to
// the metadata query that answered it — the relstore.select span names
// the index that drove the scan.
func TestSearchTraceReachesTheStore(t *testing.T) {
	tr := trace.New(trace.Options{Service: "galleryd", Sampler: trace.Always()})
	h := newTracedHarness(t, tr)
	m := h.registerModel(t, "Traced Model", "demand")
	h.upload(t, m.ID, "san_francisco", []byte("serialized-model-bytes"))

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	body := `{"constraints":[{"field":"city","operator":"equal","value":"san_francisco"}]}`
	req, err := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/search", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+callerTrace+"-00f067aa0ba902b7-01")
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d", resp.StatusCode)
	}
	d, ok := tr.Store().Get(callerTrace)
	if !ok {
		t.Fatalf("no trace recorded under %s", callerTrace)
	}
	sel, ok := collectNodes(d.Roots)["relstore.select"]
	if !ok {
		t.Fatalf("relstore.select missing from the search trace; have %v", spanNames(collectNodes(d.Roots)))
	}
	attrs := spanAttrs(sel.Span)
	if attrs["table"] != core.TableInstances || attrs["index"] != "city,created" || attrs["order"] != "streamed" || attrs["rows"] != "1" {
		t.Fatalf("relstore.select attrs = %v, want table=instances index=city,created order=streamed rows=1", attrs)
	}
}

func spanAttrs(s trace.SpanData) map[string]string {
	attrs := map[string]string{}
	for _, a := range s.Attrs {
		attrs[a.Key] = a.Value
	}
	return attrs
}

// TestMetricSearchPlansAreRangeSeeks: a search with a metric condition
// reads the metric rows that pass it through the (name, value) index —
// postings scanned within twice the rows it keeps, where a name index
// walks every posting of the metric — and the city's instances through
// (city, created), newest first, stopping at the limit without a sort.
func TestMetricSearchPlansAreRangeSeeks(t *testing.T) {
	tr := trace.New(trace.Options{Service: "galleryd", Sampler: trace.Always()})
	h := newTracedHarness(t, tr)
	m := h.registerModel(t, "Metric Search", "demand")
	for i := 0; i < 40; i++ {
		in := h.upload(t, m.ID, []string{"sf", "nyc"}[i%2], []byte("blob"))
		// mape falls as instances get newer: the newest tenth are under 0.04.
		if _, err := h.c.InsertMetric(in.ID, "mape", string(core.ScopeValidation), float64(39-i)/100); err != nil {
			t.Fatal(err)
		}
		if _, err := h.c.InsertMetric(in.ID, "bias", string(core.ScopeValidation), 0); err != nil {
			t.Fatal(err)
		}
	}

	const callerTrace = "5bf92f3577b34da6a3ce929d0e0e4736"
	body := `{"limit":1,"constraints":[{"field":"city","operator":"equal","value":"sf"},` +
		`{"field":"metricName","operator":"equal","value":"mape"},` +
		`{"field":"metricValue","operator":"smaller_than","number":0.04}]}`
	req, err := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/search", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+callerTrace+"-00f067aa0ba902b7-01")
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d", resp.StatusCode)
	}
	d, ok := tr.Store().Get(callerTrace)
	if !ok {
		t.Fatalf("no trace recorded under %s", callerTrace)
	}
	selects := map[string]map[string]string{} // by table
	var walk func([]*trace.Node)
	walk = func(ns []*trace.Node) {
		for _, n := range ns {
			if n.Span.Name == "relstore.select" {
				attrs := spanAttrs(n.Span)
				selects[attrs["table"]] = attrs
			}
			walk(n.Children)
		}
	}
	walk(d.Roots)
	join := selects[core.TableMetrics]
	scanned, _ := strconv.Atoi(join["scanned"])
	rows, _ := strconv.Atoi(join["rows"])
	if join["index"] != "name,value" || rows != 4 || scanned > 2*rows {
		t.Fatalf("metric join span %v: want index=name,value, rows=4, scanned ≤ 2×rows", join)
	}
	// sf's newest instance passes the join, so the scan stops there.
	if inst := selects[core.TableInstances]; inst["index"] != "city,created" || inst["order"] != "streamed" || inst["scanned"] != "1" {
		t.Fatalf("instance span %v: want index=city,created order=streamed scanned=1", inst)
	}
}

func spanNames(nodes map[string]*trace.Node) []string {
	out := make([]string, 0, len(nodes))
	for n := range nodes {
		out = append(out, n)
	}
	return out
}

// TestSamplerHonoredByDefault checks the default server posture: with no
// tracer configured the server runs a Never sampler, so ordinary requests
// leave nothing in the trace buffer (and allocate no spans).
func TestSamplerHonoredByDefault(t *testing.T) {
	h := newHarness(t)
	h.registerModel(t, "Untraced Model", "demand")
	if _, err := h.c.Stats(); err != nil {
		t.Fatal(err)
	}
	st := h.srv.tracer.Store().Stats()
	if st.Completed != 0 || st.Dropped != 0 {
		t.Fatalf("default (never) sampler recorded traces: %+v", st)
	}
}

// TestUnsampledTraceparentNotForced: a traceparent with flags 00 must not
// force tracing on a never-sampled server.
func TestUnsampledTraceparentNotForced(t *testing.T) {
	h := newHarness(t)
	req, err := http.NewRequest(http.MethodGet, h.ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := h.srv.tracer.Store().Stats(); st.Completed != 0 {
		t.Fatalf("unsampled traceparent forced a trace: %+v", st)
	}
}

// TestWriteTracesReachTheStore: a sampled registration, deprecation and
// dependency edit are attributed down to the metadata store — the model's
// own batch and the rows read on the way, not only the audit row's insert.
func TestWriteTracesReachTheStore(t *testing.T) {
	tr := trace.New(trace.Options{Service: "galleryd", Sampler: trace.Always()})
	h := newTracedHarness(t, tr)
	m := h.registerModel(t, "Traced Writes", "demand")
	up := h.registerModel(t, "Traced Upstream", "demand")
	in := h.upload(t, m.ID, "san_francisco", []byte("serialized-model-bytes"))

	traced := func(callerTrace, method, path, body string) map[string]*trace.Node {
		t.Helper()
		req, err := http.NewRequest(method, h.ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", "00-"+callerTrace+"-00f067aa0ba902b7-01")
		resp, err := h.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
		d, ok := tr.Store().Get(callerTrace)
		if !ok {
			t.Fatalf("no trace recorded under %s", callerTrace)
		}
		return collectNodes(d.Roots)
	}

	nodes := traced("6bf92f3577b34da6a3ce929d0e0e4736", http.MethodPost, "/v1/models",
		`{"base_version_id":"bv-traced","project":"p","name":"traced"}`)
	if _, ok := nodes["relstore.batch"]; !ok {
		t.Fatalf("relstore.batch missing from the register trace; have %v", spanNames(nodes))
	}
	nodes = traced("7bf92f3577b34da6a3ce929d0e0e4736", http.MethodPost, "/v1/instances/"+in.ID+"/deprecate", "")
	if _, ok := nodes["relstore.get"]; !ok {
		t.Fatalf("relstore.get missing from the deprecate trace; have %v", spanNames(nodes))
	}
	nodes = traced("8bf92f3577b34da6a3ce929d0e0e4736", http.MethodPost, "/v1/deps",
		`{"from":"`+m.ID+`","to":"`+up.ID+`"}`)
	for _, name := range []string{"relstore.get", "relstore.select", "relstore.batch"} {
		if _, ok := nodes[name]; !ok {
			t.Fatalf("%s missing from the dependency-add trace; have %v", name, spanNames(nodes))
		}
	}
}
