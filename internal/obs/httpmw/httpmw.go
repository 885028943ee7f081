// Package httpmw is the HTTP observability middleware shared by the
// registry server (internal/server) and the serving gateway
// (internal/serve). Both tiers previously reimplemented the status
// recorder and per-route metrics; this package is the single copy, plus
// the tracing entry point: it extracts a W3C-style `traceparent` header,
// starts the process's root span, and stashes it in the request context
// for every layer below to parent onto.
package httpmw

import (
	"log/slog"
	"net/http"
	"time"

	"gallery/internal/obs"
	"gallery/internal/obs/trace"
)

// PromContentType is the Content-Type both daemons send on
// /v1/debug/metrics/prom (text exposition format 0.0.4).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Options configures the middleware.
type Options struct {
	// Obs receives per-route metrics; required.
	Obs *obs.Registry
	// AccessLog, when set, emits one structured line per request; nil
	// builds nothing per request.
	AccessLog *slog.Logger
	// Tracer, when set, starts a root span per request (subject to its
	// sampler, or forced by an incoming sampled traceparent).
	Tracer *trace.Tracer
	// AllLatency, when set, additionally observes every request's latency
	// (the server's route-agnostic SLO histogram).
	AllLatency *obs.Histogram
	// TenantOf, when set, resolves a request to its tenant namespace
	// (empty for unauthenticated callers) and turns on per-tenant RED
	// recording: requests, errors (5xx), and latency keyed by namespace
	// in bounded-cardinality vectors. Must be allocation-free — it runs
	// on every request.
	TenantOf func(*http.Request) string
}

// DefaultNamespace labels requests that carry no tenant identity (auth
// off, or the exempt health endpoint) in the per-tenant RED vectors.
const DefaultNamespace = "default"

// RED bundles the per-tenant request/error/duration vectors recorded by
// Wrap. NewRED is idempotent per registry, so the SLO evaluator fetches
// the same handles Wrap writes to.
type RED struct {
	Requests *obs.CounterVec // tenant_http_requests_total{namespace}
	Errors   *obs.CounterVec // tenant_http_errors_total{namespace}
	Latency  *obs.HistogramVec
}

// NewRED returns the per-tenant RED vectors registered in reg.
func NewRED(reg *obs.Registry) RED {
	ns := []string{"namespace"}
	return RED{
		Requests: reg.CounterVec("tenant_http_requests_total", ns, obs.DefaultVecCardinality),
		Errors:   reg.CounterVec("tenant_http_errors_total", ns, obs.DefaultVecCardinality),
		Latency:  reg.HistogramVec("tenant_http_request_seconds", ns, obs.LatencyBuckets, obs.DefaultVecCardinality),
	}
}

// StatusRecorder captures the status code and body size a handler writes,
// for metrics and the access log.
type StatusRecorder struct {
	http.ResponseWriter
	Status      int
	Bytes       int64
	wroteHeader bool
}

// WriteHeader records the first status code written.
func (w *StatusRecorder) WriteHeader(code int) {
	if !w.wroteHeader {
		w.Status = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write counts body bytes (and records the implicit 200).
func (w *StatusRecorder) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.wroteHeader = true // implicit 200
	}
	n, err := w.ResponseWriter.Write(p)
	w.Bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming handlers keep
// working through the recorder.
func (w *StatusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// StatusClass folds a status code into its class label ("2xx", "4xx", ...).
func StatusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// Wrap returns next behind the observability middleware: per-route request
// counters by status class, latency and body-size histograms (latency
// carries slow-trace exemplars when the request is traced), root span
// start/end, and, with an AccessLog, one structured line. The route label
// is the ServeMux pattern that matched (bounded cardinality), never the
// raw URL.
func Wrap(next http.Handler, o Options) http.Handler {
	// Families resolved once; per request, children are looked up by
	// (route, status) without building a name.
	byRoute := []string{"route"}
	requests := o.Obs.CounterVec("http_requests_total", []string{"route", "status"}, 0)
	seconds := o.Obs.HistogramVec("http_request_seconds", byRoute, obs.LatencyBuckets, 0)
	reqBytes := o.Obs.HistogramVec("http_request_bytes", byRoute, obs.SizeBuckets, 0)
	respBytes := o.Obs.HistogramVec("http_response_bytes", byRoute, obs.SizeBuckets, 0)
	var red RED
	if o.TenantOf != nil {
		red = NewRED(o.Obs)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// The span is renamed to the route once the mux has matched one; no
		// sampler reads the name, so none is built per request.
		ctx, span := o.Tracer.StartRoot(r.Context(), "http.request", r.Header.Get(trace.TraceparentHeader))
		if span != nil {
			r = r.WithContext(ctx)
		}
		rec := &StatusRecorder{ResponseWriter: w, Status: http.StatusOK}
		next.ServeHTTP(rec, r)

		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		elapsed := time.Since(start)
		traceID := span.TraceIDString()

		requests.With2(route, StatusClass(rec.Status)).Inc()
		seconds.With(route).ObserveExemplar(elapsed.Seconds(), traceID)
		if o.AllLatency != nil {
			o.AllLatency.ObserveExemplar(elapsed.Seconds(), traceID)
		}
		if r.ContentLength > 0 {
			reqBytes.With(route).Observe(float64(r.ContentLength))
		}
		respBytes.With(route).Observe(float64(rec.Bytes))

		if o.TenantOf != nil {
			ns := o.TenantOf(r)
			if ns == "" {
				ns = DefaultNamespace
			}
			red.Requests.With(ns).Inc()
			if rec.Status >= 500 {
				red.Errors.With(ns).Inc()
			}
			red.Latency.With(ns).Observe(elapsed.Seconds())
		}

		if span != nil {
			span.Rename(route)
			span.Annotate("http.path", r.URL.Path)
			span.AnnotateInt("http.status", int64(rec.Status))
			span.AnnotateInt("http.response_bytes", rec.Bytes)
			if rec.Status >= 500 {
				span.Fail("http " + StatusClass(rec.Status))
			}
			span.End()
		}

		// The attributes are built only for a line the logger will keep.
		if o.AccessLog != nil && o.AccessLog.Enabled(r.Context(), slog.LevelInfo) {
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"route", route,
				"status", rec.Status,
				"bytes", rec.Bytes,
				"dur_ms", float64(elapsed.Microseconds()) / 1000,
				"remote", r.RemoteAddr,
			}
			if traceID != "" {
				attrs = append(attrs, "trace_id", traceID)
			}
			o.AccessLog.Info("request", attrs...)
		}
	})
}
