package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/forecast"
	"gallery/internal/incident"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
)

// Handler is the gateway's HTTP face. Like internal/server it speaks JSON
// (a predict body may instead be api.PredictMediaType, the Go client's)
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
	red       predictRED
	nsOf      func(*http.Request) string
	h         http.Handler
}

// predictRED bundles the per-tenant, per-model RED vectors the predict
// path records: what each namespace's traffic to each model costs, for
// the gateway's exposition and its incident bundle half.
type predictRED struct {
	requests *obs.CounterVec // serve_predict_requests_total{namespace,model}
	errors   *obs.CounterVec // serve_predict_errors_total{namespace,model}
	latency  *obs.HistogramVec
}

func newPredictRED(reg *obs.Registry) predictRED {
	lbl := []string{"namespace", "model"}
	return predictRED{
		requests: reg.CounterVec("serve_predict_requests_total", lbl, obs.DefaultVecCardinality),
		errors:   reg.CounterVec("serve_predict_errors_total", lbl, obs.DefaultVecCardinality),
		latency:  reg.HistogramVec("serve_predict_seconds", lbl, obs.LatencyBuckets, obs.DefaultVecCardinality),
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
	h.red = newPredictRED(h.obs)
	// tenant.Manager resolves a request's namespace allocation-free; with
	// auth off (or an authorizer that can't), every request lands in the
	// default namespace so namespace-scoped SLOs still work.
	h.nsOf = func(*http.Request) string { return "" }
	if a, ok := h.auth.(interface{ NamespaceOf(*http.Request) string }); ok {
		h.nsOf = a.NamespaceOf
	}
	h.mux.HandleFunc("POST /v1/predict/{model}", h.handlePredict)
	h.mux.HandleFunc("GET /v1/serving", h.handleServing)
	h.mux.HandleFunc("GET /v1/debug/bundle", h.handleBundle)
	h.mux.HandleFunc("GET /v1/healthz", h.handleHealthz)
	httpmw.RegisterDebug(h.mux.HandleFunc, h.obs, h.tracer, h.logs)
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
	// allocation. Both arms of E22 record it, so E22's authed-predict
	// bound counts it.
	ns := h.nsOf(r)
	if ns == "" {
		ns = httpmw.DefaultNamespace
	}
	h.red.requests.With2(ns, modelID).Inc()
	if status >= 500 {
		h.red.errors.With2(ns, modelID).Inc()
	}
	h.red.latency.With2(ns, modelID).Observe(time.Since(start).Seconds())
}

// servePredict writes the response and reports the status it chose.
func (h *Handler) servePredict(w http.ResponseWriter, r *http.Request, modelID string) int {
	// req borrows s's slices, and so does the forecast.Context below:
	// they go back to the pool once the response is written.
	s := predictScratchPool.Get().(*predictScratch)
	defer s.release()
	body := http.MaxBytesReader(w, r.Body, maxPredictBody)
	var req api.PredictRequest
	var err error
	if api.IsPredictMediaType(r.Header.Get("Content-Type")) {
		req, err = s.decodeBinary(body)
	} else {
		req, err = s.decode(body)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpmw.WriteError(w, status, fmt.Errorf("decode request: %w", err))
		return status
	}
	if len(req.History) == 0 {
		httpmw.WriteError(w, http.StatusBadRequest, errors.New("history must not be empty"))
		return http.StatusBadRequest
	}
	if req.HistoryEvents != nil && len(req.HistoryEvents) != len(req.History) {
		httpmw.WriteError(w, http.StatusBadRequest,
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
		httpmw.WriteError(w, status, err)
		return status
	}
	s.writeResponse(w, resp)
	return http.StatusOK
}

// maxPredictBody is the largest predict body served; one byte more is a 413.
const maxPredictBody = 4 << 20

// Scratch grown past these by one large request is dropped, not pooled.
const (
	maxPooledBody   = 64 << 10
	maxPooledPoints = 8 << 10
)

// predictScratch is one request's buffers: its body, the slices the
// decoded request borrows until release, and the encoded response.
type predictScratch struct {
	body   bytes.Buffer
	floats []float64
	bools  []bool
	out    []byte
}

var predictScratchPool = sync.Pool{
	New: func() any {
		return &predictScratch{floats: make([]float64, 0, 64), bools: make([]bool, 0, 64), out: make([]byte, 0, 256)}
	},
}

func (s *predictScratch) release() {
	if s.body.Cap() <= maxPooledBody && cap(s.floats) <= maxPooledPoints && cap(s.bools) <= maxPooledPoints {
		predictScratchPool.Put(s)
	}
}

// decode reads r to EOF and returns the JSON request in it, exactly as
// json.NewDecoder(r).Decode would have — except that it has then seen the
// whole body, so a read error (a body over the limit) is reported even
// when a complete request came first.
func (s *predictScratch) decode(r io.Reader) (api.PredictRequest, error) {
	if err := s.read(r); err != nil {
		return api.PredictRequest{}, err
	}
	return api.DecodePredictRequest(s.body.Bytes(), &s.floats, &s.bools)
}

// decodeBinary is decode for an api.PredictMediaType body.
func (s *predictScratch) decodeBinary(r io.Reader) (api.PredictRequest, error) {
	if err := s.read(r); err != nil {
		return api.PredictRequest{}, err
	}
	return api.DecodePredictBinary(s.body.Bytes(), &s.floats, &s.bools)
}

func (s *predictScratch) read(r io.Reader) error {
	s.body.Reset()
	_, err := s.body.ReadFrom(r)
	return err
}

// writeResponse answers with resp, encoded into the scratch. A non-finite
// value, which encoding/json refuses, goes to the generic writer and is a
// 500.
func (s *predictScratch) writeResponse(w http.ResponseWriter, resp api.PredictResponse) {
	b, ok := api.AppendPredictResponse(s.out[:0], &resp)
	if !ok {
		httpmw.WriteJSON(w, http.StatusOK, resp)
		return
	}
	s.out = append(b, '\n')
	httpmw.WriteEncoded(w, http.StatusOK, s.out)
}

func (h *Handler) handleServing(w http.ResponseWriter, r *http.Request) {
	httpmw.WriteJSON(w, http.StatusOK, h.gw.Status())
}

// handleBundle serves this process's full observability snapshot —
// metrics, trace and log tails, goroutine and heap profiles, build info —
// for galleryd's incident flight recorder to fold into a cross-process
// bundle.
func (h *Handler) handleBundle(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	httpmw.WriteJSON(w, http.StatusOK,
		incident.SnapshotProcess("galleryserve", h.obs, h.tracer, h.logs, time.Now()))
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpmw.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
