package obs

import (
	"bytes"
	"strings"
	"testing"
)

// populated builds a registry exercising every metric shape the writer
// handles: plain counters/gauges, labelled flat names (including label
// values with braces and spaces, like route patterns), gauge funcs,
// histograms with empty buckets, and both vector kinds with overflow.
func populatedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("plain_total").Add(7)
	r.Counter(Name("http_requests_total", "route", "POST /v1/predict/{model}", "status", "2xx")).Add(3)
	r.Gauge("heap_bytes").Set(12345.5)
	r.GaugeFunc("computed_ratio", func() float64 { return 0.25 })
	h := r.Histogram(Name("http_request_seconds", "route", "GET /v1/serving"), LatencyBuckets)
	h.Observe(0.003)
	h.Observe(42) // overflow bucket
	cv := r.CounterVec("tenant_http_requests_total", []string{"namespace"}, 2)
	cv.With("ads").Add(2)
	cv.With("maps").Inc()
	cv.With("eats").Inc() // over cap -> overflow series
	hv := r.HistogramVec("serve_predict_seconds", []string{"namespace", "model"}, []float64{0.01, 0.1, 1}, 8)
	hv.With2("ads", "ctr").Observe(0.05)
	return r
}

func TestWritePromValid(t *testing.T) {
	r := populatedRegistry()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE plain_total counter",
		"plain_total 7",
		"# TYPE tenant_http_requests_total counter",
		`tenant_http_requests_total{namespace="ads"} 2`,
		`tenant_http_requests_total{namespace="_overflow"} 1`,
		"# TYPE serve_predict_seconds histogram",
		`serve_predict_seconds_bucket{namespace="ads",model="ctr",le="+Inf"} 1`,
		`serve_predict_seconds_count{namespace="ads",model="ctr"} 1`,
		"# TYPE http_request_seconds histogram",
		"# TYPE heap_bytes gauge",
		"heap_bytes 12345.5",
		"computed_ratio 0.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Every bucket appears, even empty ones: LatencyBuckets has 16 bounds
	// plus +Inf for one series.
	if n := strings.Count(out, "http_request_seconds_bucket{"); n != len(LatencyBuckets)+1 {
		t.Errorf("bucket lines = %d, want %d", n, len(LatencyBuckets)+1)
	}
	// HELP/TYPE appear exactly once per family.
	if n := strings.Count(out, "# TYPE tenant_http_requests_total "); n != 1 {
		t.Errorf("TYPE lines for tenant_http_requests_total = %d", n)
	}
}

func TestWritePromEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	// Vector children carry raw label values, so even quotes survive.
	r.CounterVec("x_total", []string{"k"}, 4).With("quote\"back\\slash\nnl").Inc()
	// Flat names can carry backslashes and newlines in values.
	r.Counter(Name("y_total", "k", "back\\slash\nnl")).Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		`x_total{k="quote\"back\\slash\nnl"} 1`,
		`y_total{k="back\\slash\nnl"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in\n%s", want, buf.String())
		}
	}
}

func TestWritePromSanitizesNames(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("weird-name.total", "bad-key", "v")).Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("invalid after sanitizing: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `weird_name_total{bad_key="v"} 1`) {
		t.Fatalf("sanitized series missing in\n%s", buf.String())
	}
}

func TestValidateExpositionRejectsBadPayloads(t *testing.T) {
	cases := map[string]string{
		"bad name":           "# HELP 1bad x\n# TYPE 1bad counter\n1bad 1\n",
		"no help":            "# TYPE x counter\nx 1\n",
		"no type":            "# HELP x x\nx 1\n",
		"bad kind":           "# HELP x x\n# TYPE x countre\nx 1\n",
		"bad value":          "# HELP x x\n# TYPE x counter\nx one\n",
		"unquoted label":     "# HELP x x\n# TYPE x counter\nx{k=v} 1\n",
		"bad label key":      "# HELP x x\n# TYPE x counter\nx{0k=\"v\"} 1\n",
		"unterminated block": "# HELP x x\n# TYPE x counter\nx{k=\"v\" 1\n",
		"non-cumulative buckets": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n",
		"unsorted le": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\nh_sum 1\n",
		"missing inf": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n",
		"count mismatch": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n",
		"duplicate type": "# HELP x x\n# TYPE x counter\n# TYPE x counter\nx 1\n",
	}
	for name, payload := range cases {
		if err := ValidateExposition([]byte(payload)); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
	good := "# HELP h h\n# TYPE h histogram\n" +
		"h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.15\nh_count 2\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("good histogram rejected: %v", err)
	}
}

func TestWritePromDeterministic(t *testing.T) {
	r := populatedRegistry()
	var a, b bytes.Buffer
	if err := r.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two writes of the same state differ")
	}
}

// TestPromHelpText: a family with Help set shows that text, escaped, and
// the rest keep the generic line; the payload stays valid either way.
func TestPromHelpText(t *testing.T) {
	r := populatedRegistry()
	r.Help("plain_total", "Requests seen.\nBackslash \\ and \"quotes\" survive.")
	r.Help("never_registered_total", "Help for a family with no series is not emitted.")
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		`# HELP plain_total Requests seen.\nBackslash \\ and "quotes" survive.` + "\n# TYPE plain_total counter",
		"# HELP heap_bytes Gallery gauge heap_bytes.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "never_registered_total") {
		t.Errorf("HELP emitted for a family with no series\n%s", out)
	}
}
