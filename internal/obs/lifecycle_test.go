package obs

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestRuntimeGaugesExposed pins the identity/uptime gauge contract from
// RegisterRuntime in both exposition formats: gallery_build_info is a
// constant-1 gauge whose labels carry the binary's identity, and the
// process start/uptime pair agrees with ProcessStart().
func TestRuntimeGaugesExposed(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)

	buildSeries := `gallery_build_info{version="` + BuildVersion() + `",go_version="` + runtime.Version() + `"}`

	// JSON side: the snapshot served at /v1/debug/metrics.
	snap := r.Snapshot()
	if got := snap.Gauges[buildSeries]; got != 1 {
		t.Errorf("snapshot %s = %v, want 1", buildSeries, got)
	}
	start := snap.Gauges["process_start_time_seconds"]
	wantStart := float64(ProcessStart().UnixNano()) / 1e9
	if start != wantStart {
		t.Errorf("process_start_time_seconds = %v, want %v", start, wantStart)
	}
	if up := snap.Gauges["process_uptime_seconds"]; up < 0 {
		t.Errorf("process_uptime_seconds = %v, want >= 0", up)
	}

	// Prom side: the scrape at /v1/debug/metrics/prom.
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gallery_build_info gauge",
		`gallery_build_info{version="` + BuildVersion() + `",go_version="` + runtime.Version() + `"} 1`,
		"# TYPE process_start_time_seconds gauge",
		"# TYPE process_uptime_seconds gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n%s", want, out)
		}
	}
}

// TestRemoveGaugeDropsSeriesFromProm covers the vec-child lifecycle the
// SLO engine relies on: deleting an objective removes its labelled gauge
// children, and the next scrape must not resurrect the dead series. The
// golden exposition pins the exact before/after output.
func TestRemoveGaugeDropsSeriesFromProm(t *testing.T) {
	r := NewRegistry()
	budget := r.GaugeVec("slo_error_budget", []string{"slo"}, 0)
	budget.With("checkout").Set(0.75)
	budget.With("search").Set(0.5)

	prom := func() string {
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(buf.Bytes()); err != nil {
			t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
		}
		return buf.String()
	}

	before := "# HELP slo_error_budget Gallery gauge slo_error_budget.\n" +
		"# TYPE slo_error_budget gauge\n" +
		"slo_error_budget{slo=\"checkout\"} 0.75\n" +
		"slo_error_budget{slo=\"search\"} 0.5\n"
	if got := prom(); got != before {
		t.Fatalf("before removal:\n got %q\nwant %q", got, before)
	}

	budget.Delete("checkout")

	after := "# HELP slo_error_budget Gallery gauge slo_error_budget.\n" +
		"# TYPE slo_error_budget gauge\n" +
		"slo_error_budget{slo=\"search\"} 0.5\n"
	if got := prom(); got != after {
		t.Fatalf("after removal:\n got %q\nwant %q", got, after)
	}
	if snap := r.Snapshot(); len(snap.Gauges) != 1 {
		t.Fatalf("snapshot gauges = %v, want only the surviving series", snap.Gauges)
	}
}

// TestOverflowChildRoundTripsExposition pins the exact exposition of a
// capped vector that has spilled into its _overflow child: the overflow
// series must render as a legal, parseable sample like any other child.
func TestOverflowChildRoundTripsExposition(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("tenant_requests_total", []string{"namespace"}, 1)
	cv.With("ads").Add(4)
	cv.With("eats").Add(2) // over cap -> _overflow
	cv.With("maps").Inc()  // also folded into _overflow

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition with _overflow child invalid: %v\n%s", err, buf.String())
	}
	want := "# HELP tenant_requests_total Gallery counter tenant_requests_total.\n" +
		"# TYPE tenant_requests_total counter\n" +
		"tenant_requests_total{namespace=\"_overflow\"} 3\n" +
		"tenant_requests_total{namespace=\"ads\"} 4\n"
	if got := buf.String(); got != want {
		t.Fatalf("overflow exposition:\n got %q\nwant %q", got, want)
	}
}
