package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/forecast"
	"gallery/internal/incident"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/profile"
	"gallery/internal/obs/trace"
)

// Handler is the gateway's HTTP face. Like internal/server it speaks JSON
// and routes through the shared observability middleware (obs/httpmw), so
// one /v1/debug/metrics scrape covers both tiers with identical metric
// names — per-route counters, latency with slow-trace exemplars, and
// request/response body-size histograms.
type Handler struct {
	gw        *Gateway
	mux       *http.ServeMux
	obs       *obs.Registry
	accessLog *slog.Logger
	tracer    *trace.Tracer
	logs      *obslog.Ring
	auth      httpmw.Authorizer
	pprof     bool
	profiler  *profile.Profiler
	red       PredictRED
	nsOf      func(*http.Request) string
	h         http.Handler
}

// PredictRED bundles the per-tenant, per-model RED vectors the predict
// path records — the signal the SLO evaluator consumes for model-scoped
// objectives. NewPredictRED is idempotent per registry.
type PredictRED struct {
	Requests *obs.CounterVec // serve_predict_requests_total{namespace,model}
	Errors   *obs.CounterVec // serve_predict_errors_total{namespace,model}
	Latency  *obs.HistogramVec
}

// NewPredictRED returns the predict RED vectors registered in reg.
func NewPredictRED(reg *obs.Registry) PredictRED {
	lbl := []string{"namespace", "model"}
	return PredictRED{
		Requests: reg.CounterVec("serve_predict_requests_total", lbl, obs.DefaultVecCardinality),
		Errors:   reg.CounterVec("serve_predict_errors_total", lbl, obs.DefaultVecCardinality),
		Latency:  reg.HistogramVec("serve_predict_seconds", lbl, obs.LatencyBuckets, obs.DefaultVecCardinality),
	}
}

// HandlerOption customizes a Handler.
type HandlerOption func(*Handler)

// WithAccessLog enables one structured log line per request.
func WithAccessLog(l *slog.Logger) HandlerOption {
	return func(h *Handler) { h.accessLog = l }
}

// WithTracer attaches a tracer: requests become (sampled) traces, the
// traceparent header is honored, and GET /v1/debug/traces serves the
// local completed-trace buffer.
func WithTracer(t *trace.Tracer) HandlerOption {
	return func(h *Handler) { h.tracer = t }
}

// WithPprof mounts net/http/pprof under /v1/debug/pprof/. Off by default:
// profiles expose memory contents, so operators opt in per process.
func WithPprof() HandlerOption {
	return func(h *Handler) { h.pprof = true }
}

// WithLogRing serves the process's structured-log ring at
// GET /v1/debug/logs — the same contract galleryd exposes, so one set of
// tooling (galleryctl logs) follows either tier.
func WithLogRing(r *obslog.Ring) HandlerOption {
	return func(h *Handler) { h.logs = r }
}

// WithProfiler serves the continuous profiler's local window ring at
// GET /v1/debug/profile (the single-process view galleryd's fleet
// endpoint merges) and tails its history into GET /v1/debug/bundle.
func WithProfiler(p *profile.Profiler) HandlerOption {
	return func(h *Handler) { h.profiler = p }
}

// WithAuthorizer gates every route (except GET /v1/healthz, which the
// authorizer exempts for load-balancer probes) behind the multi-tenant
// control plane — the same bearer-token → role → rate-limit pipeline
// galleryd enforces, typically backed by a tenant.Manager seeded from a
// token file.
func WithAuthorizer(a httpmw.Authorizer) HandlerOption {
	return func(h *Handler) { h.auth = a }
}

// NewHandler wraps a Gateway in its HTTP API.
func NewHandler(gw *Gateway, opts ...HandlerOption) *Handler {
	h := &Handler{gw: gw, mux: http.NewServeMux(), obs: gw.obs}
	for _, o := range opts {
		o(h)
	}
	if h.tracer == nil {
		h.tracer = gw.tracer
	}
	h.red = NewPredictRED(h.obs)
	// tenant.Manager resolves a request's namespace allocation-free; with
	// auth off (or an authorizer that can't), every request lands in the
	// default namespace so namespace-scoped SLOs still work.
	h.nsOf = func(*http.Request) string { return "" }
	if a, ok := h.auth.(interface{ NamespaceOf(*http.Request) string }); ok {
		h.nsOf = a.NamespaceOf
	}
	h.mux.HandleFunc("POST /v1/predict/{model}", h.handlePredict)
	h.mux.HandleFunc("GET /v1/serving", h.handleServing)
	h.mux.HandleFunc("GET /v1/debug/metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /v1/debug/metrics/prom", h.handleMetricsProm)
	h.mux.HandleFunc("GET /v1/debug/bundle", h.handleBundle)
	h.mux.HandleFunc("GET /v1/healthz", h.handleHealthz)
	if h.tracer != nil {
		h.mux.HandleFunc("GET /v1/debug/traces", h.handleListTraces)
		h.mux.HandleFunc("GET /v1/debug/traces/{id}", h.handleGetTrace)
	}
	if h.logs != nil {
		h.mux.HandleFunc("GET /v1/debug/logs", h.handleLogs)
	}
	if h.profiler != nil {
		h.mux.HandleFunc("GET /v1/debug/profile", h.handleProfile)
	}
	if h.pprof {
		httpmw.RegisterPprof(h.mux)
	}
	h.h = httpmw.Wrap(h.mux, httpmw.Options{
		Obs:       h.obs,
		AccessLog: h.accessLog,
		Tracer:    h.tracer,
		TenantOf:  h.nsOf,
	})
	if h.auth != nil {
		// Outside Wrap for the same route-pattern-attribution reason as
		// galleryd's actor middleware.
		h.h = httpmw.WithAuth(h.h, h.auth)
	}
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.h.ServeHTTP(w, r)
}

func (h *Handler) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	modelID := r.PathValue("model")
	status := h.servePredict(w, r, modelID)

	// Per-tenant/per-model RED over bounded vectors: two counter lookups
	// and one histogram observe against pre-registered handles, no
	// allocation — gated at 0 extra allocs/op by E23 alongside E22's auth
	// gate.
	ns := h.nsOf(r)
	if ns == "" {
		ns = httpmw.DefaultNamespace
	}
	h.red.Requests.With2(ns, modelID).Inc()
	if status >= 500 {
		h.red.Errors.With2(ns, modelID).Inc()
	}
	h.red.Latency.With2(ns, modelID).Observe(time.Since(start).Seconds())
}

// servePredict writes the response and reports the status it chose.
func (h *Handler) servePredict(w http.ResponseWriter, r *http.Request, modelID string) int {
	// req borrows s's slices, and so does the forecast.Context below:
	// they go back to the pool once the response is written.
	s := predictScratchPool.Get().(*predictScratch)
	defer s.release()
	req, err := s.decode(http.MaxBytesReader(w, r.Body, maxPredictBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeServeErr(w, status, fmt.Errorf("decode request: %w", err))
		return status
	}
	if len(req.History) == 0 {
		writeServeErr(w, http.StatusBadRequest, errors.New("history must not be empty"))
		return http.StatusBadRequest
	}
	if req.HistoryEvents != nil && len(req.HistoryEvents) != len(req.History) {
		writeServeErr(w, http.StatusBadRequest,
			fmt.Errorf("history_events length %d does not match history length %d",
				len(req.HistoryEvents), len(req.History)))
		return http.StatusBadRequest
	}
	resp, err := h.gw.PredictCtx(r.Context(), modelID, forecast.Context{
		History:       req.History,
		Time:          req.Time,
		Event:         req.Event,
		PrevEvent:     req.PrevEvent,
		HistoryEvents: req.HistoryEvents,
	})
	if err != nil {
		status := predictStatus(err)
		writeServeErr(w, status, err)
		return status
	}
	writePredictResponse(w, resp)
	return http.StatusOK
}

func (h *Handler) handleServing(w http.ResponseWriter, r *http.Request) {
	writeServeJSON(w, http.StatusOK, h.gw.Status())
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// no-store: dashboards poll this; a cached snapshot is a wrong one.
	w.Header().Set("Cache-Control", "no-store")
	writeServeJSON(w, http.StatusOK, h.obs.Snapshot())
}

func (h *Handler) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", httpmw.PromContentType)
	w.Header().Set("Cache-Control", "no-store")
	_ = h.obs.WriteProm(w)
}

// handleBundle serves this process's full observability snapshot —
// metrics, trace and log tails, profiles, build info — for galleryd's
// incident flight recorder to fold into a cross-process bundle.
func (h *Handler) handleBundle(w http.ResponseWriter, r *http.Request) {
	var hist incident.ProfileHistory
	if h.profiler != nil {
		hist = h.profiler.Ring()
	}
	w.Header().Set("Cache-Control", "no-store")
	writeServeJSON(w, http.StatusOK,
		incident.SnapshotProcess("galleryserve", h.obs, h.tracer, h.logs, hist, 0, 0, 0, time.Now()))
}

// handleProfile serves the local continuous-profiling view: this
// process's ring folded per kind, the single-process shape of the fleet
// view galleryd serves under the same path.
func (h *Handler) handleProfile(w http.ResponseWriter, r *http.Request) {
	merge, topN, err := profile.ParseViewQuery(r.URL.Query())
	if err != nil {
		writeServeErr(w, http.StatusBadRequest, err)
		return
	}
	now := time.Now()
	v := profile.View{Generated: now}
	if merge > 0 {
		v.Merge = merge.String()
	}
	v.Processes = []profile.ProcessView{h.profiler.Ring().View(h.profiler.Process(), merge, topN, now)}
	w.Header().Set("Cache-Control", "no-store")
	writeServeJSON(w, http.StatusOK, v)
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeServeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *Handler) handleListTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			writeServeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", s))
			return
		}
		limit = n
	}
	st := h.tracer.Store()
	// no-store, like the metrics endpoints: debug state is live state.
	w.Header().Set("Cache-Control", "no-store")
	writeServeJSON(w, http.StatusOK, map[string]any{
		"stats":  st.Stats(),
		"traces": st.Summaries(limit),
	})
}

func (h *Handler) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	d, ok := h.tracer.Store().Get(r.PathValue("id"))
	if !ok {
		writeServeErr(w, http.StatusNotFound, fmt.Errorf("no trace %s", r.PathValue("id")))
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	writeServeJSON(w, http.StatusOK, d)
}

// handleLogs serves the in-memory structured-log ring with the same query
// parameters as galleryd's /v1/debug/logs: level, since (RFC3339 or a
// relative duration), after (cursor from a prior next_seq), limit.
func (h *Handler) handleLogs(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	f := obslog.Filter{MinLevel: obslog.ParseLevel(qp.Get("level"))}
	if v := qp.Get("since"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			f.Since = time.Now().Add(-d)
		} else if t, err := time.Parse(time.RFC3339, v); err == nil {
			f.Since = t
		} else {
			writeServeErr(w, http.StatusBadRequest, fmt.Errorf("bad since %q", v))
			return
		}
	}
	if v := qp.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeServeErr(w, http.StatusBadRequest, fmt.Errorf("bad after cursor %q", v))
			return
		}
		f.AfterSeq = n
		f.HasAfterSeq = true
	}
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeServeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		f.Limit = n
	}
	entries, next := h.logs.Entries(f)
	w.Header().Set("Cache-Control", "no-store")
	writeServeJSON(w, http.StatusOK, api.DebugLogsResponse{Entries: entries, NextSeq: next})
}

// predictStatus maps a load/predict error onto a status code. Gallery's
// own verdicts pass through (404 for an unknown model, 400 for a model
// with no promoted instance reads as 502 below since it is a gateway
// dependency failure); anything else is the upstream being unreachable.
func predictStatus(err error) int {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		if apiErr.Status == http.StatusNotFound {
			return http.StatusNotFound
		}
		return http.StatusBadGateway
	}
	if errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadGateway
}

func writeServeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeServeErr(w http.ResponseWriter, status int, err error) {
	writeServeJSON(w, status, api.Error{Error: err.Error()})
}
