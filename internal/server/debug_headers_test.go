package server_test

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gallery/internal/daemon"
)

// TestDebugEndpointHeaders pins the header contract shared by every
// debug endpoint on BOTH daemons, as their production assembly mounts
// them: an explicit application/json Content-Type and Cache-Control:
// no-store. Debug state is live state — a proxy that caches a trace tail
// or a log tail hands the operator a stale picture of an incident.
func TestDebugEndpointHeaders(t *testing.T) {
	var gdCfg daemon.GallerydConfig
	parseFlags(t, gdCfg.Flags, "-mem", "-trace-sample", "always", "-dump-metrics=false")
	gd, err := daemon.NewGalleryd(gdCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gd.Close() })
	ts := httptest.NewServer(gd.Handler())
	t.Cleanup(ts.Close)

	var gwCfg daemon.GalleryserveConfig
	parseFlags(t, gwCfg.Flags, "-gallery", ts.URL, "-trace-sample", "always",
		"-refresh", "-1s", "-health-flush", "-1s")
	gw, err := daemon.NewGalleryserve(gwCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	gwTS := httptest.NewServer(gw.Handler())
	t.Cleanup(gwTS.Close)

	cases := []struct {
		daemon string
		base   string
		path   string
	}{
		{"galleryd", ts.URL, "/v1/debug/logs"},
		{"galleryd", ts.URL, "/v1/debug/traces"},
		{"galleryd", ts.URL, "/v1/debug/metrics"},
		{"galleryserve", gwTS.URL, "/v1/debug/logs"},
		{"galleryserve", gwTS.URL, "/v1/debug/traces"},
		{"galleryserve", gwTS.URL, "/v1/debug/metrics"},
		{"galleryserve", gwTS.URL, "/v1/debug/bundle"},
	}
	for _, tc := range cases {
		resp, err := http.Get(tc.base + tc.path)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.daemon, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status = %d, want 200", tc.daemon, tc.path, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s: Content-Type = %q, want application/json", tc.daemon, tc.path, ct)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s %s: Cache-Control = %q, want no-store", tc.daemon, tc.path, cc)
		}
	}
}

// parseFlags fills a daemon config from its flag defaults and args.
func parseFlags(t *testing.T, register func(*flag.FlagSet), args ...string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
}
