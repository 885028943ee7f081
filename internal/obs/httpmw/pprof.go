package httpmw

import (
	"net/http"
	"net/http/pprof"

	"gallery/internal/obs/profile"
)

// RegisterPprof mounts net/http/pprof under /v1/debug/pprof/ on mux.
// Registration is opt-in (daemon flag): the endpoints expose goroutine
// stacks and heap contents, and CPU/trace capture pauses are operator
// actions, not something to leave open by default.
//
// pprof.Index resolves profile names from the path after /debug/pprof/,
// so the index route strips the /v1 prefix before delegating. A CPU
// profile pull takes the profile from the continuous profiler's window
// (profile.HandOffCPU) instead of failing while one is open.
func RegisterPprof(mux *http.ServeMux) {
	mux.Handle("GET /v1/debug/pprof/", http.StripPrefix("/v1", http.HandlerFunc(pprof.Index)))
	mux.HandleFunc("GET /v1/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /v1/debug/pprof/profile", func(w http.ResponseWriter, r *http.Request) {
		defer profile.HandOffCPU()()
		pprof.Profile(w, r)
	})
	mux.HandleFunc("GET /v1/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("POST /v1/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /v1/debug/pprof/trace", pprof.Trace)
}
