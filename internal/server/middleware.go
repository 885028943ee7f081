package server

import (
	"net/http"

	"gallery/internal/api"
	"gallery/internal/core"
)

// ServeHTTP implements http.Handler. Every request flows through the
// shared observability middleware (internal/obs/httpmw): per-route request
// counters by status class, latency and body-size histograms with
// slow-trace exemplars, root-span start/end from the incoming traceparent,
// and one structured access-log line. The route label is the ServeMux
// pattern that matched (bounded cardinality), never the raw URL.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.ServeHTTP(w, r)
}

// commitOnAck is the server's one durability point: for every request
// that may mutate (anything but GET and HEAD) the metadata WAL is
// committed before the first header or body byte of the response leaves,
// so under -fsync no client ever holds an acknowledgement for a write a
// power loss can take back. Handlers and the layers below them never wait
// for the disk themselves; a request's records — typically four for an
// upload — share this one fsync, and concurrent requests share each
// other's. It sits inside httpmw.Wrap, so the wait shows as a
// relstore.wal_commit span under the request root and a failed commit is
// counted as the 500 it becomes.
func (s *Server) commitOnAck(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			next.ServeHTTP(w, r)
			return
		}
		cw := &commitWriter{ResponseWriter: w, reg: s.reg, req: r}
		next.ServeHTTP(cw, r)
		cw.ack() // a handler that wrote nothing still acknowledges by returning
	})
}

// commitWriter commits before the first write of a response and, when
// the commit fails, answers 500 in the handler's place.
type commitWriter struct {
	http.ResponseWriter
	reg    *core.Registry
	req    *http.Request
	acked  bool
	failed bool
}

// ack commits once and reports whether the handler's response may pass.
func (w *commitWriter) ack() bool {
	if w.acked {
		return !w.failed
	}
	w.acked = true
	if err := w.reg.Commit(w.req.Context()); err != nil {
		w.failed = true
		writeJSON(w.ResponseWriter, http.StatusInternalServerError, api.Error{Error: "metadata commit: " + err.Error()})
	}
	return !w.failed
}

func (w *commitWriter) WriteHeader(code int) {
	if w.ack() {
		w.ResponseWriter.WriteHeader(code)
	}
}

func (w *commitWriter) Write(p []byte) (int, error) {
	if !w.ack() {
		return len(p), nil // the 500 already went out; drop the handler's body
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so streaming handlers keep
// working through the wrapper.
func (w *commitWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok && w.ack() {
		f.Flush()
	}
}
