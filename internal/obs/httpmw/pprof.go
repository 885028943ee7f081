package httpmw

import (
	"net/http"
	"net/http/pprof"
)

// RegisterPprof mounts net/http/pprof under /v1/debug/pprof/ on mux.
// Registration is opt-in (daemon flag): the endpoints expose goroutine
// stacks and heap contents, and CPU/trace capture pauses are operator
// actions, not something to leave open by default.
//
// pprof.Index resolves profile names from the path after /debug/pprof/,
// so the index route strips the /v1 prefix before delegating.
func RegisterPprof(mux *http.ServeMux) {
	mux.Handle("GET /v1/debug/pprof/", http.StripPrefix("/v1", http.HandlerFunc(pprof.Index)))
	mux.HandleFunc("GET /v1/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /v1/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /v1/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("POST /v1/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /v1/debug/pprof/trace", pprof.Trace)
}
