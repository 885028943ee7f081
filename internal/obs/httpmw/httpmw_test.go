package httpmw

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"gallery/internal/obs"
	"gallery/internal/obs/trace"
)

// discard is a ResponseWriter that keeps nothing, so AllocsPerRun counts
// only what the handler chain allocates.
type discard struct{ h http.Header }

func (d discard) Header() http.Header       { return d.h }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)             {}

// TestWrapAllocs pins Wrap's own allocations per request on a one-route
// mux, with and without a tracer that samples nothing: its metric
// children are looked up by (route, status), never through a name built
// per request, and the traceparent lookup allocates nothing, because the
// header key is already canonical. An access log that drops Info lines
// costs nothing either: its attributes are never built.
func TestWrapAllocs(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/things/{id}", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	reg := obs.NewRegistry()
	wrapped := Wrap(mux, Options{Obs: reg})
	traced := Wrap(mux, Options{Obs: obs.NewRegistry(), Tracer: trace.New(trace.Options{Sampler: trace.Never()})})
	warnLog := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	quiet := Wrap(mux, Options{Obs: obs.NewRegistry(), AccessLog: warnLog})
	w := discard{h: http.Header{}}
	req := httptest.NewRequest("GET", "/v1/things/42", nil)
	bare := testing.AllocsPerRun(200, func() { mux.ServeHTTP(w, req) })
	all := testing.AllocsPerRun(200, func() { wrapped.ServeHTTP(w, req) })
	withTracer := testing.AllocsPerRun(200, func() { traced.ServeHTTP(w, req) })
	withWarnLog := testing.AllocsPerRun(200, func() { quiet.ServeHTTP(w, req) })
	t.Logf("bare mux %.0f allocs/request, wrapped %.0f, wrapped with a tracer %.0f, with a warn-level access log %.0f",
		bare, all, withTracer, withWarnLog)
	if own := all - bare; own > 1 {
		t.Errorf("Wrap allocates %.0f per request on top of the bare mux's %.0f, want <= 1", own, bare)
	}
	if own := withTracer - bare; own > 1 {
		t.Errorf("Wrap with a tracer allocates %.0f per request on top of the bare mux's %.0f, want <= 1", own, bare)
	}
	if own := withWarnLog - bare; own > 1 {
		t.Errorf("Wrap with a warn-level access log allocates %.0f per request on top of the bare mux's %.0f, want <= 1", own, bare)
	}
	if got := reg.CounterVec("http_requests_total", []string{"route", "status"}, 0).
		Peek2("GET /v1/things/{id}", "2xx").Value(); got != 201 {
		t.Errorf("requests counted = %d, want 201", got)
	}
}
