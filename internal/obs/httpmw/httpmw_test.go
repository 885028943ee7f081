package httpmw

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"gallery/internal/obs"
)

// discard is a ResponseWriter that keeps nothing, so AllocsPerRun counts
// only what the handler chain allocates.
type discard struct{ h http.Header }

func (d discard) Header() http.Header       { return d.h }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)             {}

// TestWrapAllocs pins Wrap's own allocations per request on a one-route
// mux with no tracer: its metric children are looked up by (route,
// status), never through a name built per request.
func TestWrapAllocs(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/things/{id}", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	reg := obs.NewRegistry()
	wrapped := Wrap(mux, Options{Obs: reg})
	w := discard{h: http.Header{}}
	req := httptest.NewRequest("GET", "/v1/things/42", nil)
	bare := testing.AllocsPerRun(200, func() { mux.ServeHTTP(w, req) })
	all := testing.AllocsPerRun(200, func() { wrapped.ServeHTTP(w, req) })
	t.Logf("bare mux %.0f allocs/request, wrapped %.0f", bare, all)
	if own := all - bare; own > 3 {
		t.Errorf("Wrap allocates %.0f per request on top of the bare mux's %.0f, want <= 3", own, bare)
	}
	if got := reg.CounterVec("http_requests_total", []string{"route", "status"}, 0).
		Peek2("GET /v1/things/{id}", "2xx").Value(); got != 201 {
		t.Errorf("requests counted = %d, want 201", got)
	}
}
