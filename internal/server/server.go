// Package server exposes the Gallery registry and rule engine as a
// stateless JSON/HTTP microservice — the reproduction's stand-in for the
// paper's Thrift service (§4, §4.1). All state lives in the storage layer,
// so any number of server processes can front the same stores, matching
// the paper's "stateless microservice ... horizontally scalable" design.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/core"
	"gallery/internal/health"
	"gallery/internal/incident"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/profile"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/slo"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
)

// DefaultMaxBodyBytes bounds JSON request bodies; large model blobs ride
// inside upload requests, so the ceiling is generous.
const DefaultMaxBodyBytes = 256 << 20

// Options tunes a Server.
type Options struct {
	// Obs receives HTTP and dispatch metrics; nil uses obs.Default.
	Obs *obs.Registry
	// AccessLog, when non-nil, receives one structured (JSON) log line
	// per request.
	AccessLog io.Writer
	// MaxBodyBytes bounds JSON request bodies (default DefaultMaxBodyBytes).
	// Oversized bodies are rejected with 413.
	MaxBodyBytes int64
	// EventQueue bounds the rule-engine dispatch queue (default 1024).
	// Metric events beyond the bound are dropped and counted.
	EventQueue int
	// Tracer records request traces. nil builds a local tracer with the
	// Never sampler — the debug endpoints still serve (and ingest spans
	// shipped by tracing peers), but no local request starts a trace.
	Tracer *trace.Tracer
	// Pprof mounts net/http/pprof under /v1/debug/pprof/ (off by default:
	// profiling endpoints expose stacks and should be opted into).
	Pprof bool
	// Health, when non-nil, mounts the continuous model-health endpoints
	// (POST /v1/health/observations, GET /v1/health/models[/{id}]).
	Health *health.Monitor
	// Logs, when non-nil, is the bounded in-memory ring served at
	// GET /v1/debug/logs. Access-log lines and the server's ad-hoc error
	// logs are routed through it (trace-correlated), teeing to AccessLog
	// when that is also set.
	Logs *obslog.Ring
	// LogLevel gates what enters Logs (default info).
	LogLevel slog.Level
	// Tenants, when non-nil, turns on the multi-tenant control plane:
	// every request must carry a bearer token, roles and per-namespace
	// rate limits are enforced before handlers run, model/blob quotas are
	// charged on registration and upload, the /v1/tenants admin endpoints
	// are mounted, and the audit actor becomes the verified token identity
	// (X-Gallery-Actor is ignored).
	Tenants *tenant.Manager
	// SLO, when non-nil, mounts the objective endpoints (POST/GET
	// /v1/slo, DELETE /v1/slo/{id}, GET /v1/slo/status). The service's
	// evaluation loop is the daemon's to start; the server only fronts
	// declaration and status.
	SLO *slo.Service
	// Incidents, when non-nil, mounts the flight-recorder endpoints
	// (POST/GET /v1/incidents, GET /v1/incidents/{id}).
	Incidents *incident.Recorder
	// Profiles, when non-nil, mounts the continuous-profiling fleet view
	// (GET /v1/debug/profile) and the cross-process summary ingest
	// (POST /v1/debug/profile) that gateways ship into.
	Profiles *profile.Fleet
}

// Server wires HTTP routes to the registry and rule engine.
type Server struct {
	reg       *core.Registry
	repo      *rules.Repo
	engine    *rules.Engine
	health    *health.Monitor
	tenants   *tenant.Manager    // nil when auth is off
	slo       *slo.Service       // nil when SLOs are off
	incidents *incident.Recorder // nil when the flight recorder is off
	profiles  *profile.Fleet     // nil when continuous profiling is off
	mux       *http.ServeMux
	h         http.Handler // mux behind the shared observability middleware

	// routePatterns records every registered mux pattern, so tests can
	// assert each route against the tenant role classification and a new
	// route cannot silently land in the wrong class.
	routePatterns []string

	obs        *obs.Registry
	accessLog  *slog.Logger
	logs       *obslog.Ring
	tracer     *trace.Tracer
	maxBody    int64
	allLatency *obs.Histogram // route-less latency; headline p50/p95 for /v1/stats

	cDispatched    *obs.Counter
	cDropped       *obs.Counter
	cBlobWriteErrs *obs.Counter

	// Rule-engine dispatch queue: metric-update events leave the request
	// path here and are replayed into the engine by a single goroutine,
	// keeping the engine's own serialization.
	events    chan metricEvent
	eventWG   sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

// metricEvent pairs a metric update with the detached trace context of the
// request that caused it, so asynchronous rule evaluation shows up as late
// spans of the same trace.
type metricEvent struct {
	ctx context.Context
	id  uuid.UUID
}

// New builds a Server with default Options. The engine may be nil for
// storage-only deployments (feature tiers 1–3 of paper §6.3); rule
// endpoints then return 404.
func New(reg *core.Registry, repo *rules.Repo, engine *rules.Engine) *Server {
	return NewWith(reg, repo, engine, Options{})
}

// NewWith builds a Server with explicit Options.
func NewWith(reg *core.Registry, repo *rules.Repo, engine *rules.Engine, opts Options) *Server {
	if opts.Obs == nil {
		opts.Obs = obs.Default
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.EventQueue <= 0 {
		opts.EventQueue = 1024
	}
	if opts.Tracer == nil {
		opts.Tracer = trace.New(trace.Options{Service: "galleryd"})
	}
	obs.RegisterRuntime(opts.Obs)
	s := &Server{
		reg:       reg,
		repo:      repo,
		engine:    engine,
		health:    opts.Health,
		tenants:   opts.Tenants,
		slo:       opts.SLO,
		incidents: opts.Incidents,
		profiles:  opts.Profiles,
		mux:       http.NewServeMux(),

		obs:            opts.Obs,
		tracer:         opts.Tracer,
		maxBody:        opts.MaxBodyBytes,
		allLatency:     opts.Obs.Histogram("http_request_seconds_all", obs.LatencyBuckets),
		cDispatched:    opts.Obs.Counter("server_engine_dispatch_total"),
		cDropped:       opts.Obs.Counter("server_engine_dispatch_dropped_total"),
		cBlobWriteErrs: opts.Obs.Counter("server_blob_write_errors_total"),

		events: make(chan metricEvent, opts.EventQueue),
		done:   make(chan struct{}),
	}
	// Log pipeline: the ring (queryable at /v1/debug/logs) in front,
	// teeing to the AccessLog writer as plain JSON lines when set. With
	// no ring the writer keeps its original direct handler.
	var next slog.Handler
	if opts.AccessLog != nil {
		next = slog.NewJSONHandler(opts.AccessLog, nil)
	}
	s.logs = opts.Logs
	switch {
	case opts.Logs != nil:
		s.accessLog = slog.New(obslog.NewHandler(opts.Logs, opts.LogLevel, next))
	case next != nil:
		s.accessLog = slog.New(next)
	}
	s.routes()
	if opts.Pprof {
		httpmw.RegisterPprof(s.mux)
	}
	// The actor/auth layer sits outside httpmw so the mux sees the same
	// *Request the middleware holds (route-pattern attribution relies on
	// that); the actor value still flows inward through the derived
	// context. With tenants enabled, authentication replaces the
	// self-declared actor header entirely.
	// Per-tenant RED vectors: with auth on the namespace comes from the
	// verified token; with auth off everything lands in "default", so
	// namespace-scoped SLOs still evaluate.
	tenantOf := func(*http.Request) string { return "" }
	if s.tenants != nil {
		tenantOf = s.tenants.NamespaceOf
	}
	wrapped := httpmw.Wrap(s.commitOnAck(s.mux), httpmw.Options{
		Obs:        s.obs,
		AccessLog:  s.accessLog,
		Tracer:     s.tracer,
		AllLatency: s.allLatency,
		TenantOf:   tenantOf,
	})
	if s.tenants != nil {
		s.h = httpmw.WithAuth(wrapped, s.tenants)
	} else {
		s.h = withActor(wrapped, opts.Obs.Counter("audit_anonymous_actor_total"))
	}
	go s.eventLoop()
	return s
}

// notifyMetricUpdated hands a metric-update event to the dispatch queue
// without blocking the request path. When the queue is full the event is
// dropped (and counted): rule re-evaluation is best-effort and a later
// metric write re-triggers it.
func (s *Server) notifyMetricUpdated(id uuid.UUID) {
	s.notifyMetricUpdatedCtx(context.Background(), id)
}

// notifyMetricUpdatedCtx is notifyMetricUpdated carrying the request's
// trace span (detached: the span link survives the response, request
// cancellation does not) into the rule engine.
func (s *Server) notifyMetricUpdatedCtx(ctx context.Context, id uuid.UUID) {
	if s.engine == nil {
		return
	}
	select {
	case <-s.done:
		s.cDropped.Inc()
		return
	default:
	}
	s.eventWG.Add(1)
	select {
	case s.events <- metricEvent{ctx: trace.Detach(ctx), id: id}:
		s.cDispatched.Inc()
	default:
		s.eventWG.Done()
		s.cDropped.Inc()
	}
}

// eventLoop replays queued metric events into the rule engine, one at a
// time. The engine applies its own worker-pool parallelism when started.
func (s *Server) eventLoop() {
	for {
		select {
		case ev := <-s.events:
			s.dispatch(ev)
		case <-s.done:
			for {
				select {
				case ev := <-s.events:
					s.dispatch(ev)
				default:
					return
				}
			}
		}
	}
}

// dispatch is one pass of the event loop. Rules an unstarted engine runs
// inline write audit rows and promotions with no client waiting, so the
// pass commits them itself (a started engine's workers commit their own).
// A failed commit has nobody to refuse; it is sticky in the WAL, so the
// next mutating request reports it.
func (s *Server) dispatch(ev metricEvent) {
	s.engine.MetricUpdatedCtx(ev.ctx, ev.id)
	_ = s.reg.Commit(ev.ctx)
	s.eventWG.Done()
}

// Flush blocks until every queued metric event has been handed to the
// engine and the engine's own queue has drained. Tests use it to observe
// the effects of asynchronous dispatch deterministically.
func (s *Server) Flush() {
	s.eventWG.Wait()
	if s.engine != nil {
		s.engine.Flush()
	}
}

// Close stops the dispatch goroutine after draining queued events.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
}

// handle registers a route on the mux and records its pattern for the
// classification-coverage test.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.routePatterns = append(s.routePatterns, pattern)
	s.mux.HandleFunc(pattern, h)
}

func (s *Server) routes() {
	s.handle("POST /v1/models", s.handleRegisterModel)
	s.handle("GET /v1/models/{id}", s.handleGetModel)
	s.handle("GET /v1/models", s.handleModelsByBase)
	s.handle("POST /v1/models/{id}/evolve", s.handleEvolveModel)
	s.handle("GET /v1/models/{id}/evolution", s.handleEvolution)
	s.handle("POST /v1/models/{id}/deprecate", s.handleDeprecateModel)
	s.handle("GET /v1/models/{id}/versions", s.handleVersions)
	s.handle("GET /v1/models/{id}/production", s.handleProductionVersion)
	s.handle("GET /v1/models/{id}/upstreams", s.handleUpstreams)
	s.handle("GET /v1/models/{id}/downstreams", s.handleDownstreams)
	s.handle("POST /v1/versions/{id}/promote", s.handlePromote)
	s.handle("POST /v1/deps", s.handleAddDep)
	s.handle("DELETE /v1/deps", s.handleRemoveDep)

	s.handle("POST /v1/instances", s.handleUploadInstance)
	s.handle("GET /v1/instances/{id}", s.handleGetInstance)
	s.handle("GET /v1/instances/{id}/blob", s.handleGetBlob)
	s.handle("POST /v1/instances/{id}/deprecate", s.handleDeprecateInstance)
	s.handle("POST /v1/instances/{id}/promote", s.handlePromoteInstance)
	s.handle("POST /v1/instances/{id}/metrics", s.handleInsertMetric)
	s.handle("POST /v1/instances/{id}/metricset", s.handleInsertMetrics)
	s.handle("GET /v1/instances/{id}/metrics", s.handleMetricSeries)
	s.handle("POST /v1/instances/{id}/drift", s.handleDrift)
	s.handle("POST /v1/instances/{id}/skew", s.handleSkew)

	s.handle("POST /v1/instances/{id}/metricsblob", s.handleInsertMetricsBlob)
	s.handle("POST /v1/health/fleet", s.handleFleetHealth)
	if s.health != nil {
		// Continuous health: gateways flush observation windows in, the
		// monitor's verdicts stream out.
		s.handle("POST /v1/health/observations", s.handleHealthObservations)
		s.handle("GET /v1/health/models", s.handleListModelHealth)
		s.handle("GET /v1/health/models/{id}", s.handleGetModelHealth)
	}

	s.handle("POST /v1/search", s.handleSearch)
	s.handle("GET /v1/lineage/{base}", s.handleLineage)
	s.handle("GET /v1/stats", s.handleStats)
	// Liveness for load balancers, the same answer galleryserve gives; the
	// authorizer lets it through without a token.
	s.handle("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.handle("GET /v1/audit", s.handleListAudit)
	s.handle("POST /v1/audit", s.handleIngestAudit)
	s.handle("GET /v1/audit/entity/{id}", s.handleEntityTimeline)
	s.handle("GET /v1/debug/logs", s.handleDebugLogs)
	s.handle("GET /v1/debug/metrics", s.handleDebugMetrics)
	s.handle("GET /v1/debug/metrics/prom", s.handleDebugMetricsProm)
	s.handle("GET /v1/debug/traces", s.handleListTraces)
	s.handle("GET /v1/debug/traces/{id}", s.handleGetTrace)
	s.handle("POST /v1/debug/traces", s.handleIngestTraces)

	s.handle("POST /v1/rules", s.handleCommitRules)
	s.handle("GET /v1/rules", s.handleListRules)
	s.handle("POST /v1/rules/{id}/select", s.handleSelect)
	s.handle("GET /v1/alerts", s.handleAlerts)

	if s.tenants != nil {
		s.tenantRoutes()
	}
	if s.slo != nil {
		s.sloRoutes()
	}
	if s.incidents != nil {
		s.incidentRoutes()
	}
	if s.profiles != nil {
		s.profileRoutes()
	}
}

// --- plumbing ---

// jsonBufPool amortizes encode buffers across requests: responses are
// staged in a pooled buffer so Content-Length can be set and the write
// happens in one syscall, instead of json.Encoder allocating per call.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer jsonBufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var maxBytes *http.MaxBytesError
	switch {
	case errors.As(err, &maxBytes):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, core.ErrNotFound), errors.Is(err, relstore.ErrNotFound),
		errors.Is(err, tenant.ErrNotFound), errors.Is(err, slo.ErrNotFound),
		errors.Is(err, incident.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, incident.ErrSuppressed):
		status = http.StatusTooManyRequests
	case errors.Is(err, core.ErrBadSpec), errors.Is(err, rules.ErrInvalidRule),
		errors.Is(err, tenant.ErrBadSpec), errors.Is(err, slo.ErrBadSpec),
		errors.Is(err, slo.ErrNoSource):
		status = http.StatusBadRequest
	case errors.Is(err, core.ErrCycle), errors.Is(err, relstore.ErrDuplicate), errors.Is(err, tenant.ErrExists):
		status = http.StatusConflict
	case errors.Is(err, tenant.ErrForbidden), errors.Is(err, tenant.ErrModelQuota):
		status = http.StatusForbidden
	case errors.Is(err, tenant.ErrBlobQuota):
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, api.Error{Error: err.Error()})
}

// decode reads a bounded JSON body. The ResponseWriter is handed to
// MaxBytesReader so the connection is closed properly on overflow, and
// the resulting *http.MaxBytesError surfaces as 413 via writeErr.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: %v", core.ErrBadSpec, err)
	}
	return nil
}

func pathUUID(r *http.Request, name string) (uuid.UUID, error) {
	u, err := uuid.Parse(r.PathValue(name))
	if err != nil {
		return uuid.Nil, fmt.Errorf("%w: bad %s: %v", core.ErrBadSpec, name, err)
	}
	return u, nil
}

// --- models ---

func (s *Server) handleRegisterModel(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterModelRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	spec := core.ModelSpec{
		BaseVersionID: req.BaseVersionID,
		Project:       req.Project,
		Name:          req.Name,
		Owner:         req.Owner,
		Team:          req.Team,
		Domain:        req.Domain,
		Description:   req.Description,
		InitialMajor:  req.InitialMajor,
	}
	for _, up := range req.Upstreams {
		u, err := uuid.Parse(up)
		if err != nil {
			writeErr(w, fmt.Errorf("%w: bad upstream id %q", core.ErrBadSpec, up))
			return
		}
		spec.Upstreams = append(spec.Upstreams, u)
	}
	release, err := s.reserveModelQuota(r, spec.Name)
	if err != nil {
		writeErr(w, err)
		return
	}
	m, err := s.reg.RegisterModelCtx(r.Context(), spec)
	if err != nil {
		release()
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, modelDTO(m))
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	m, err := s.reg.GetModel(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, modelDTO(m))
}

func (s *Server) handleModelsByBase(w http.ResponseWriter, r *http.Request) {
	base := r.URL.Query().Get("base_version_id")
	if base == "" {
		writeErr(w, fmt.Errorf("%w: base_version_id query parameter required", core.ErrBadSpec))
		return
	}
	ms, err := s.reg.ModelsByBase(base)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, modelDTOs(ms))
}

func (s *Server) handleEvolveModel(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	if _, err := s.authorizeModelIDWrite(r, id); err != nil {
		writeErr(w, err)
		return
	}
	var req api.EvolveModelRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	m, err := s.reg.EvolveModelCtx(r.Context(), id, req.Description)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, modelDTO(m))
}

func (s *Server) handleEvolution(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	chain, err := s.reg.Evolution(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, modelDTOs(chain))
}

func (s *Server) handleDeprecateModel(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	owner, err := s.authorizeModelIDWrite(r, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	retired, err := s.reg.DeprecateModelReport(r.Context(), id)
	if err != nil {
		writeErr(w, err)
		return
	}
	if retired {
		// A deprecated model no longer occupies one of the namespace's
		// model slots; the report is true exactly once per model, so the
		// release cannot double-credit.
		s.releaseModelQuota(r.Context(), owner)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	vs, err := s.reg.VersionHistory(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]api.VersionRecord, len(vs))
	for i, v := range vs {
		out[i] = versionDTO(v)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleProductionVersion(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	v, err := s.reg.ProductionVersionCtx(r.Context(), id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, versionDTO(v))
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	if s.tenants != nil {
		v, err := s.reg.Version(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		if _, err := s.authorizeModelIDWrite(r, v.ModelID); err != nil {
			writeErr(w, err)
			return
		}
	}
	if err := s.reg.PromoteCtx(r.Context(), id); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUpstreams(w http.ResponseWriter, r *http.Request)   { s.handleDeps(w, r, true) }
func (s *Server) handleDownstreams(w http.ResponseWriter, r *http.Request) { s.handleDeps(w, r, false) }

func (s *Server) handleDeps(w http.ResponseWriter, r *http.Request, up bool) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	var ids []uuid.UUID
	if up {
		ids, err = s.reg.Upstreams(id)
	} else {
		ids, err = s.reg.Downstreams(id)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]string, len(ids))
	for i, u := range ids {
		out[i] = u.String()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAddDep(w http.ResponseWriter, r *http.Request) {
	from, to, err := s.depPair(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Ownership follows the dependent side: adding the edge bumps from's
	// version chain, while to is only referenced — depending on another
	// team's model is the normal cross-team case.
	if _, err := s.authorizeModelIDWrite(r, from); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.AddDependency(from, to); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRemoveDep(w http.ResponseWriter, r *http.Request) {
	from, to, err := s.depPair(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if _, err := s.authorizeModelIDWrite(r, from); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.RemoveDependency(from, to); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) depPair(w http.ResponseWriter, r *http.Request) (from, to uuid.UUID, err error) {
	var req api.DependencyRequest
	if err := s.decode(w, r, &req); err != nil {
		return uuid.Nil, uuid.Nil, err
	}
	from, err = uuid.Parse(req.From)
	if err != nil {
		return uuid.Nil, uuid.Nil, fmt.Errorf("%w: bad from id", core.ErrBadSpec)
	}
	to, err = uuid.Parse(req.To)
	if err != nil {
		return uuid.Nil, uuid.Nil, fmt.Errorf("%w: bad to id", core.ErrBadSpec)
	}
	return from, to, nil
}

// --- instances ---

func (s *Server) handleUploadInstance(w http.ResponseWriter, r *http.Request) {
	var req api.UploadInstanceRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	modelID, err := uuid.Parse(req.ModelID)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: bad model_id", core.ErrBadSpec))
		return
	}
	owner, err := s.authorizeModelIDWrite(r, modelID)
	if err != nil {
		writeErr(w, err)
		return
	}
	release, err := s.reserveBlobQuota(r.Context(), owner, int64(len(req.Blob)))
	if err != nil {
		writeErr(w, err)
		return
	}
	in, err := s.reg.UploadInstanceCtx(r.Context(), core.InstanceSpec{
		ModelID:      modelID,
		Name:         req.Name,
		City:         req.City,
		Framework:    req.Framework,
		TrainingData: req.TrainingData,
		CodePointer:  req.CodePointer,
		Seed:         req.Seed,
		Epochs:       req.Epochs,
		Hyperparams:  req.Hyperparams,
		Features:     req.Features,
	}, req.Blob)
	if err != nil {
		release()
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, instanceDTO(in))
}

func (s *Server) handleGetInstance(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	in, err := s.reg.GetInstanceCtx(r.Context(), id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, instanceDTO(in))
}

func (s *Server) handleGetBlob(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	data, err := s.reg.FetchBlobCtx(r.Context(), id)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		// The response is committed; all we can do is record that the
		// client went away mid-transfer — in the log ring (correlated to
		// this request's trace) and on the instance's audit timeline, so
		// the aborted transfer is visible post-hoc next to the serving
		// events it may explain.
		s.cBlobWriteErrs.Inc()
		if s.accessLog != nil {
			s.accessLog.ErrorContext(r.Context(), "blob write failed",
				"instance", id.String(), "bytes", len(data), "err", err.Error())
		}
		_ = s.reg.Audit().Record(r.Context(), audit.Event{
			Action:     audit.ActionBlobServeFailed,
			EntityType: audit.EntityInstance,
			EntityID:   id.String(),
			Before:     fmt.Sprintf("serving %d bytes", len(data)),
			After:      "transfer aborted",
			Detail:     err.Error(),
		})
	}
}

// handlePromoteInstance promotes the version record an instance realizes —
// the remote form of the rule engine's deploy callback, used by operators
// and tests to flip what serving gateways pick up on their next refresh.
func (s *Server) handlePromoteInstance(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	if _, err := s.authorizeInstanceWrite(r, id); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.PromoteInstanceCtx(r.Context(), id); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDeprecateInstance(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	if _, err := s.authorizeInstanceWrite(r, id); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.DeprecateInstanceCtx(r.Context(), id); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleInsertMetric(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	if _, err := s.authorizeInstanceWrite(r, id); err != nil {
		writeErr(w, err)
		return
	}
	var req api.InsertMetricRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	m, err := s.reg.InsertMetricCtx(r.Context(), id, req.Name, core.Scope(req.Scope), req.Value)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Metric updates are rule-engine events (paper Fig. 8, Client 2),
	// dispatched off the request path.
	s.notifyMetricUpdatedCtx(r.Context(), id)
	writeJSON(w, http.StatusCreated, metricDTO(m))
}

func (s *Server) handleInsertMetrics(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	if _, err := s.authorizeInstanceWrite(r, id); err != nil {
		writeErr(w, err)
		return
	}
	var req api.InsertMetricsRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.InsertMetricsCtx(r.Context(), id, core.Scope(req.Scope), req.Values); err != nil {
		writeErr(w, err)
		return
	}
	s.notifyMetricUpdatedCtx(r.Context(), id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetricSeries(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	q := r.URL.Query()
	ms, err := s.reg.MetricSeries(id, q.Get("name"), core.Scope(q.Get("scope")))
	if err != nil {
		writeErr(w, err)
		return
	}
	out := make([]api.Metric, len(ms))
	for i, m := range ms {
		out[i] = metricDTO(m)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	var req api.DriftRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	rep, err := s.reg.CheckDrift(id, core.DriftConfig{
		Metric: req.Metric, Window: req.Window, Baseline: req.Baseline, Threshold: req.Threshold,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.DriftReport{
		InstanceID:   rep.InstanceID.String(),
		Metric:       rep.Metric,
		BaselineMean: rep.BaselineMean,
		RecentMean:   rep.RecentMean,
		Degradation:  rep.Degradation,
		Drifted:      rep.Drifted,
		Checked:      rep.Checked,
		Samples:      rep.Samples,
	})
}

func (s *Server) handleSkew(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	var req api.SkewRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	rep, err := s.reg.CheckSkew(id, core.SkewConfig{Metric: req.Metric, Threshold: req.Threshold})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.SkewReport{
		InstanceID:   rep.InstanceID.String(),
		Metric:       rep.Metric,
		OfflineScope: string(rep.OfflineScope),
		Offline:      rep.Offline,
		Production:   rep.Production,
		Gap:          rep.Gap,
		Skewed:       rep.Skewed,
		Checked:      rep.Checked,
	})
}

// handleInsertMetricsBlob accepts the paper's raw "<metric>:<value>" blob
// format (§3.3.3); the scope travels as a query parameter.
func (s *Server) handleInsertMetricsBlob(w http.ResponseWriter, r *http.Request) {
	id, err := pathUUID(r, "id")
	if err != nil {
		writeErr(w, err)
		return
	}
	owner, err := s.authorizeInstanceWrite(r, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	scope := core.Scope(r.URL.Query().Get("scope"))
	limit := min(int64(16<<20), s.maxBody)
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) {
			writeErr(w, err) // 413
			return
		}
		writeErr(w, fmt.Errorf("%w: read metrics blob: %v", core.ErrBadSpec, err))
		return
	}
	// The parsed pairs land as stored metric rows, so bulk ingestion is
	// bounded by the same byte quota as instance blobs — without the
	// charge, this route would be an unmetered path to unbounded storage.
	release, err := s.reserveBlobQuota(r.Context(), owner, int64(len(blob)))
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.InsertMetricsBlobCtx(r.Context(), id, scope, blob); err != nil {
		release()
		writeErr(w, err)
		return
	}
	s.notifyMetricUpdatedCtx(r.Context(), id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFleetHealth(w http.ResponseWriter, r *http.Request) {
	var req api.FleetHealthRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	rep, err := s.reg.CheckFleetHealth(core.FleetHealthConfig{
		Project: req.Project,
		Metric:  req.Metric,
		Drift: core.DriftConfig{
			Metric: req.Metric, Window: req.Drift.Window,
			Baseline: req.Drift.Baseline, Threshold: req.Drift.Threshold,
		},
		Skew:  core.SkewConfig{Metric: req.Metric, Threshold: req.Skew.Threshold},
		Limit: req.Limit,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	out := api.FleetHealth{
		Project: rep.Project, Total: rep.Total, Drifted: rep.Drifted,
		Skewed: rep.Skewed, LowMetadata: rep.LowMetadata, MissingMetrics: rep.MissingMetrics,
	}
	for _, ih := range rep.Instances {
		out.Instances = append(out.Instances, api.InstanceHealth{
			InstanceID:   ih.InstanceID.String(),
			ModelName:    ih.ModelName,
			City:         ih.City,
			Completeness: ih.Completeness,
			HasMetrics:   ih.HasMetrics,
			Drift: api.DriftReport{
				InstanceID: ih.InstanceID.String(), Metric: ih.Drift.Metric,
				BaselineMean: ih.Drift.BaselineMean, RecentMean: ih.Drift.RecentMean,
				Degradation: ih.Drift.Degradation, Drifted: ih.Drift.Drifted,
				Checked: ih.Drift.Checked, Samples: ih.Drift.Samples,
			},
			Skew: api.SkewReport{
				InstanceID: ih.InstanceID.String(), Metric: ih.Skew.Metric,
				OfflineScope: string(ih.Skew.OfflineScope), Offline: ih.Skew.Offline,
				Production: ih.Skew.Production, Gap: ih.Skew.Gap,
				Skewed: ih.Skew.Skewed, Checked: ih.Skew.Checked,
			},
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// --- search / lineage / stats ---

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req api.SearchRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	filter, err := FilterFromSearch(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	ins, err := s.reg.SearchInstancesCtx(r.Context(), filter)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, instanceDTOs(ins))
}

func (s *Server) handleLineage(w http.ResponseWriter, r *http.Request) {
	base := r.PathValue("base")
	ins, err := s.reg.LineageCtx(r.Context(), base)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, instanceDTOs(ins))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	models, instances, metrics := s.reg.Counts()
	st := api.Stats{Models: models, Instances: instances, Metrics: metrics}

	// Headline observability numbers; the full breakdown lives at
	// /v1/debug/metrics.
	st.Requests = s.obs.SumCounters("http_requests_total")
	st.P50LatencyMS = s.allLatency.Quantile(0.50) * 1000
	st.P95LatencyMS = s.allLatency.Quantile(0.95) * 1000
	cs := s.reg.DAL().CacheStats()
	if total := cs.Hits + cs.Misses; total > 0 {
		st.CacheHitRatio = float64(cs.Hits) / float64(total)
	}
	bs := s.reg.DAL().Blobs().Stats()
	st.BlobPuts, st.BlobGets = bs.Puts, bs.Gets
	if s.engine != nil {
		st.RuleEvaluations = s.engine.Stats().Evaluations
	}
	st.EngineDispatches = s.cDispatched.Value()
	st.EngineDrops = s.cDropped.Value()
	writeJSON(w, http.StatusOK, st)
}

// handleDebugMetrics renders the full metrics registry: per-route request
// counters and latency histograms, DAL/relstore/blobstore counters, rule
// engine activity, and dispatch-queue health.
func (s *Server) handleDebugMetrics(w http.ResponseWriter, r *http.Request) {
	// no-store: dashboards poll this; a cached snapshot is a wrong one.
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, s.obs.Snapshot())
}

// handleDebugMetricsProm renders the same registry in Prometheus text
// exposition format 0.0.4, for standard scrapers.
func (s *Server) handleDebugMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", httpmw.PromContentType)
	w.Header().Set("Cache-Control", "no-store")
	_ = s.obs.WriteProm(w)
}

// --- rules ---

func (s *Server) handleCommitRules(w http.ResponseWriter, r *http.Request) {
	if s.repo == nil {
		writeErr(w, fmt.Errorf("%w: rule engine not enabled", core.ErrNotFound))
		return
	}
	var req api.CommitRulesRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	var upserts []*rules.Rule
	for _, raw := range req.Upserts {
		rule, err := rules.ParseRule(raw)
		if err != nil {
			writeErr(w, err)
			return
		}
		upserts = append(upserts, rule)
	}
	commit, err := s.repo.Commit(req.Author, req.Message, upserts, req.Deletes)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"hash": commit.Hash})
}

func (s *Server) handleListRules(w http.ResponseWriter, r *http.Request) {
	if s.repo == nil {
		writeErr(w, fmt.Errorf("%w: rule engine not enabled", core.ErrNotFound))
		return
	}
	writeJSON(w, http.StatusOK, s.repo.Active())
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	if s.engine == nil {
		writeErr(w, fmt.Errorf("%w: rule engine not enabled", core.ErrNotFound))
		return
	}
	ruleID := r.PathValue("id")
	var req api.SelectModelRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	filter, err := FilterFromSearch(req.Filter)
	if err != nil {
		writeErr(w, err)
		return
	}
	in, err := s.engine.SelectModel(ruleID, filter)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, instanceDTO(in))
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.engine == nil {
		writeErr(w, fmt.Errorf("%w: rule engine not enabled", core.ErrNotFound))
		return
	}
	alerts := s.engine.Alerts()
	out := make([]api.Alert, len(alerts))
	for i, a := range alerts {
		out[i] = api.Alert{
			Time:       a.Time,
			RuleUUID:   a.RuleUUID,
			InstanceID: uuidStr(a.InstanceID),
			Action:     a.Action,
			Message:    a.Message,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// FilterFromSearch translates the wire constraint list (paper Listing 5
// shape) into a core.InstanceFilter. A request it cannot honour exactly is
// refused with core.ErrBadSpec rather than answered with something else:
// a metricValue or metricScope without a metricName (or a metricName
// without a metricValue), a string operator on metricValue, a negative
// limit.
func FilterFromSearch(req api.SearchRequest) (core.InstanceFilter, error) {
	f := core.InstanceFilter{IncludeDeprecated: req.IncludeDeprecated, Limit: req.Limit}
	if req.Limit < 0 {
		return f, fmt.Errorf("%w: negative limit %d", core.ErrBadSpec, req.Limit)
	}
	for _, c := range req.Constraints {
		op, err := relstore.ParseOp(c.Operator)
		if err != nil {
			return f, fmt.Errorf("%w: %v", core.ErrBadSpec, err)
		}
		switch c.Field {
		case "projectName", "project":
			f.Project = c.Value
		case "modelName", "name":
			f.Name = c.Value
		case "city":
			f.City = c.Value
		case "baseVersionId", "base_version_id":
			f.BaseVersionID = c.Value
		case "framework":
			f.Framework = c.Value
		case "modelId", "model_id":
			id, err := uuid.Parse(c.Value)
			if err != nil {
				return f, fmt.Errorf("%w: bad model_id %q", core.ErrBadSpec, c.Value)
			}
			f.ModelID = id
		case "metricName":
			f.MetricName = c.Value
		case "metricScope":
			f.MetricScope = core.Scope(c.Value)
		case "metricValue":
			switch op {
			case relstore.OpPrefix, relstore.OpContains, relstore.OpIn:
				return f, fmt.Errorf("%w: metricValue does not support operator %s", core.ErrBadSpec, op)
			}
			f.MetricOp = op
			f.MetricValue = c.Number
		default:
			return f, fmt.Errorf("%w: unknown search field %q", core.ErrBadSpec, c.Field)
		}
		// Metadata fields only support equality on the wire; metricValue
		// carries the comparison operator.
		if c.Field != "metricValue" && op != relstore.OpEq {
			return f, fmt.Errorf("%w: field %s only supports operator equal", core.ErrBadSpec, c.Field)
		}
	}
	if f.MetricName != "" && f.MetricOp == 0 {
		return f, fmt.Errorf("%w: metricName constraint needs a metricValue constraint", core.ErrBadSpec)
	}
	if f.MetricName == "" && (f.MetricOp != 0 || f.MetricScope != "") {
		return f, fmt.Errorf("%w: metricValue and metricScope constraints need a metricName constraint", core.ErrBadSpec)
	}
	return f, nil
}

// --- DTO conversions ---

func modelDTO(m *core.Model) api.Model {
	return api.Model{
		ID:            m.ID.String(),
		BaseVersionID: m.BaseVersionID,
		Project:       m.Project,
		Name:          m.Name,
		Owner:         m.Owner,
		Team:          m.Team,
		Domain:        m.Domain,
		Description:   m.Description,
		Major:         m.Major,
		PrevModel:     uuidStr(m.PrevModel),
		NextModel:     uuidStr(m.NextModel),
		Created:       m.Created,
		Deprecated:    m.Deprecated,
	}
}

func modelDTOs(ms []*core.Model) []api.Model {
	out := make([]api.Model, len(ms))
	for i, m := range ms {
		out[i] = modelDTO(m)
	}
	return out
}

func instanceDTO(in *core.Instance) api.Instance {
	return api.Instance{
		ID:            in.ID.String(),
		ModelID:       in.ModelID.String(),
		BaseVersionID: in.BaseVersionID,
		Project:       in.Project,
		Name:          in.Name,
		City:          in.City,
		Framework:     in.Framework,
		TrainingData:  in.TrainingData,
		CodePointer:   in.CodePointer,
		Seed:          in.Seed,
		Epochs:        in.Epochs,
		Hyperparams:   in.Hyperparams,
		Features:      in.Features,
		BlobLocation:  in.BlobLocation,
		Created:       in.Created,
		Deprecated:    in.Deprecated,
	}
}

func instanceDTOs(ins []*core.Instance) []api.Instance {
	out := make([]api.Instance, len(ins))
	for i, in := range ins {
		out[i] = instanceDTO(in)
	}
	return out
}

func metricDTO(m *core.Metric) api.Metric {
	return api.Metric{
		ID:         m.ID.String(),
		InstanceID: m.InstanceID.String(),
		ModelID:    m.ModelID.String(),
		Name:       m.Name,
		Scope:      string(m.Scope),
		Value:      m.Value,
		At:         m.At,
	}
}

func versionDTO(v *core.VersionRecord) api.VersionRecord {
	return api.VersionRecord{
		ID:          v.ID.String(),
		ModelID:     v.ModelID.String(),
		Major:       v.Major,
		Minor:       v.Minor,
		Version:     v.String(),
		Cause:       string(v.Cause),
		InstanceID:  uuidStr(v.InstanceID),
		TriggeredBy: uuidStr(v.TriggeredBy),
		Created:     v.Created,
		Production:  v.Production,
	}
}

func uuidStr(u uuid.UUID) string {
	if u.IsNil() {
		return ""
	}
	return u.String()
}
