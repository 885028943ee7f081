// Package serve is Gallery's real-time prediction serving gateway — the
// consumer side of the paper's architecture (§2, Fig. 2), where a realtime
// prediction service pulls production model instances out of Gallery and
// answers traffic with them. A Gateway watches models' denormalized
// production-version pointers through the Gallery client, fetches and
// deserializes the corresponding instance blobs into forecast learners,
// and serves predictions with:
//
//   - a size-bounded LRU of loaded models, with singleflight loading so a
//     cold model's first burst of requests triggers exactly one fetch;
//   - hot swap on promotion — a refresh loop polls the production pointer
//     and atomically swaps the served learner, so the §4.2 dynamic-
//     switching win (a rule promotes a better instance) reaches traffic
//     within one refresh interval with zero dropped requests; and
//   - graceful degradation — when galleryd is unreachable the gateway
//     keeps answering from the last-known-good instance and flags the
//     responses stale.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
)

// ErrClosed reports a request arriving after Close.
var ErrClosed = errors.New("serve: gateway closed")

// Source is what the gateway needs from Gallery; *client.Client satisfies
// it. Implementations must be safe for concurrent use.
type Source interface {
	// ProductionVersion returns the promoted version of a model.
	ProductionVersion(modelID string) (api.VersionRecord, error)
	// FetchBlob downloads an instance's serialized learner bytes.
	FetchBlob(instanceID string) ([]byte, error)
}

// ctxSource is the optional trace-propagating extension of Source.
// *client.Client implements it; when the source does, gateway loads carry
// the caller's trace context across the wire to galleryd, so one predict
// request shows up as one trace spanning both processes.
type ctxSource interface {
	ProductionVersionCtx(ctx context.Context, modelID string) (api.VersionRecord, error)
	FetchBlobCtx(ctx context.Context, instanceID string) ([]byte, error)
}

// Options tunes a Gateway.
type Options struct {
	// MaxModels bounds the LRU of loaded models (default 64).
	MaxModels int
	// RefreshInterval is the production-pointer poll period (default 5s).
	// Zero uses the default; negative disables the loop (tests drive
	// RefreshAll directly).
	RefreshInterval time.Duration
	// Loader resolves learner kinds (default forecast.DefaultLoader).
	Loader *forecast.Loader
	// Obs receives gateway metrics; nil uses obs.Default.
	Obs *obs.Registry
	// Tracer, when set, lets background gateway work (hot-swap refreshes)
	// start traces of its own, subject to its sampler.
	// Request traces do not need it — they ride the caller's context.
	Tracer *trace.Tracer
	// Name identifies this gateway in flushed health observations
	// (default "gateway").
	Name string
	// HealthSink, when set, turns on continuous model-health recording:
	// per-model sketches of predicted values and latencies plus
	// request/stale counts, cut every HealthInterval and handed to it.
	// galleryserve queues them on its telemetry shipper for galleryd's
	// health monitor. It is called from the health loop and must not
	// block. Nil keeps the predict hot path free of any recording work.
	HealthSink func(api.HealthObservationsRequest)
	// HealthInterval is the observation-window length (default 15s).
	// Zero uses the default; negative disables the flush loop (tests
	// drive FlushHealth directly).
	HealthInterval time.Duration
	// AuditSink, when set, receives the gateway's lifecycle audit events —
	// today only serve.swap, emitted when a hot swap replaces the served
	// learner. The gateway has no audit store of its own, so galleryserve
	// queues them on its telemetry shipper for galleryd's trail
	// (POST /v1/audit). It is called from the refresh loop and must not
	// block; delivery is best-effort and never fails a swap.
	AuditSink func(api.AuditEvent)
}

// served is one immutable loaded-model snapshot. Swaps replace the whole
// value behind an atomic pointer, so a prediction in flight keeps the
// learner it started with and never observes a torn state.
type served struct {
	learner  forecast.Model
	learnerN string // learner.Name(), computed once at load
	version  api.VersionRecord
	loadedAt time.Time
}

// entry is one model slot in the gateway's LRU.
type entry struct {
	modelID string
	el      *list.Element

	// ready is closed when the initial load resolves; loadErr is only
	// read after that. Requests racing the first load wait here —
	// singleflight without a second map.
	ready   chan struct{}
	loadErr error

	cur   atomic.Pointer[served]
	stale atomic.Bool
	swaps atomic.Int64

	// lastOK is the unix-nano time of the last successful load or
	// refresh, feeding the per-model refresh-age gauge.
	lastOK atomic.Int64
	// mxStale is this model's serve_stale_serves_total child, made once
	// the initial load succeeds.
	mxStale *obs.Counter
	// health is the model's live observation window; nil when health
	// recording is off.
	health *entryHealth
}

// Gateway serves predictions from Gallery production instances.
type Gateway struct {
	src    Source
	opts   Options
	loader *forecast.Loader
	obs    *obs.Registry
	tracer *trace.Tracer // may be nil; every use is nil-safe

	mu      sync.Mutex
	entries map[string]*entry
	ll      *list.List // front = most recently used

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mx gatewayMetrics
}

type gatewayMetrics struct {
	loads        *obs.Counter
	loadErrs     *obs.Counter
	swaps        *obs.Counter
	evictions    *obs.Counter
	refreshes    *obs.Counter
	refreshErrs  *obs.Counter
	predicts     *obs.Counter
	predictErrs  *obs.Counter
	stale        *obs.Counter
	loadedModels *obs.Gauge
	// Per-model series, {model}: created only after a successful load and
	// deleted on eviction, so unknown model IDs leave nothing behind.
	staleServes               *obs.CounterVec
	servedVersion, refreshAge *obs.GaugeVec
}

var byModel = []string{"model"}

// New builds a Gateway and starts its refresh loop (unless disabled).
func New(src Source, opts Options) *Gateway {
	if opts.MaxModels <= 0 {
		opts.MaxModels = 64
	}
	if opts.RefreshInterval == 0 {
		opts.RefreshInterval = 5 * time.Second
	}
	if opts.Loader == nil {
		opts.Loader = forecast.DefaultLoader
	}
	if opts.Obs == nil {
		opts.Obs = obs.Default
	}
	// Build-info and uptime gauges, same contract as galleryd: one
	// scrape (or incident bundle) identifies the binary it came from.
	obs.RegisterRuntime(opts.Obs)
	if opts.Name == "" {
		opts.Name = "gateway"
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 15 * time.Second
	}
	g := &Gateway{
		src:     src,
		opts:    opts,
		loader:  opts.Loader,
		obs:     opts.Obs,
		tracer:  opts.Tracer,
		entries: make(map[string]*entry),
		ll:      list.New(),
		done:    make(chan struct{}),
		mx: gatewayMetrics{
			loads:         opts.Obs.Counter("serve_model_loads_total"),
			loadErrs:      opts.Obs.Counter("serve_model_load_errors_total"),
			swaps:         opts.Obs.Counter("serve_hot_swaps_total"),
			evictions:     opts.Obs.Counter("serve_evictions_total"),
			refreshes:     opts.Obs.Counter("serve_refreshes_total"),
			refreshErrs:   opts.Obs.Counter("serve_refresh_errors_total"),
			predicts:      opts.Obs.Counter("serve_predictions_total"),
			predictErrs:   opts.Obs.Counter("serve_prediction_errors_total"),
			stale:         opts.Obs.Counter("serve_stale_predictions_total"),
			loadedModels:  opts.Obs.Gauge("serve_loaded_models"),
			staleServes:   opts.Obs.CounterVec("serve_stale_serves_total", byModel, 0),
			servedVersion: opts.Obs.GaugeVec("serve_served_version", byModel, 0),
			refreshAge:    opts.Obs.GaugeVec("serve_refresh_age_seconds", byModel, 0),
		},
	}
	if opts.RefreshInterval > 0 {
		g.wg.Add(1)
		go g.refreshLoop()
	}
	if opts.HealthSink != nil && opts.HealthInterval > 0 {
		g.wg.Add(1)
		go g.healthLoop()
	}
	return g
}

// Close stops the refresh and health loops. In-flight predictions finish;
// later loads fail with ErrClosed.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() { close(g.done) })
	g.wg.Wait()
}

// Predict answers one forecast query from modelID's production instance,
// loading it on first use.
func (g *Gateway) Predict(modelID string, fctx forecast.Context) (api.PredictResponse, error) {
	return g.PredictCtx(context.Background(), modelID, fctx)
}

// PredictCtx is Predict with trace attribution. When the caller's context
// carries a span, a "serve.predict" child records whether the model was
// resident (cache=hit), mid-load by another request (coalesced), or
// loaded by this one (miss), and the load's Gallery calls propagate the
// trace to galleryd. With no span in ctx the path is allocation-free,
// learner included: every forecast.Model predicts without allocating.
//
// fctx's slices are borrowed, not kept: nothing reads them once PredictCtx
// has returned, so the caller may reuse them for its next request (the HTTP
// handler decodes into pooled buffers). A learner must copy what it wants
// to keep.
func (g *Gateway) PredictCtx(ctx context.Context, modelID string, fctx forecast.Context) (api.PredictResponse, error) {
	start := time.Now()
	ctx, span := trace.Start(ctx, "serve.predict")
	if span != nil {
		span.Annotate("model", modelID)
	}
	e, cache, err := g.entry(ctx, modelID)
	if span != nil {
		span.Annotate("cache", cache)
	}
	if err != nil {
		g.mx.predictErrs.Inc()
		span.EndErr(err)
		return api.PredictResponse{}, err
	}
	srv := e.cur.Load()
	value := srv.learner.Forecast(fctx)
	stale := e.stale.Load()
	g.mx.predicts.Inc()
	if stale {
		g.mx.stale.Inc()
		e.mxStale.Inc()
	}
	if e.health != nil {
		e.health.record(value, time.Since(start).Seconds(), stale)
	}
	span.End()
	return api.PredictResponse{
		ModelID:    modelID,
		InstanceID: srv.version.InstanceID,
		VersionID:  srv.version.ID,
		Version:    srv.version.Version,
		Learner:    srv.learnerN,
		Value:      value,
		Stale:      stale,
	}, nil
}

// entry returns the (loaded) slot for modelID, creating and loading it if
// new. Exactly one goroutine performs a given model's load; the rest wait.
// The second return reports how the slot was found: "hit", "coalesced"
// (another request's load was in flight), or "miss".
func (g *Gateway) entry(ctx context.Context, modelID string) (*entry, string, error) {
	g.mu.Lock()
	if e, ok := g.entries[modelID]; ok {
		g.ll.MoveToFront(e.el)
		g.mu.Unlock()
		cache := "hit"
		select {
		case <-e.ready:
		default:
			cache = "coalesced"
			<-e.ready
		}
		if e.loadErr != nil {
			return nil, cache, e.loadErr
		}
		return e, cache, nil
	}
	select {
	case <-g.done:
		g.mu.Unlock()
		return nil, "miss", ErrClosed
	default:
	}
	e := &entry{modelID: modelID, ready: make(chan struct{})}
	if g.opts.HealthSink != nil {
		e.health = newEntryHealth(time.Now())
	}
	e.el = g.ll.PushFront(e)
	g.entries[modelID] = e
	var evicted []*entry
	for len(g.entries) > g.opts.MaxModels {
		back := g.ll.Back()
		if back == nil || back == e.el {
			break
		}
		old := back.Value.(*entry)
		g.ll.Remove(back)
		delete(g.entries, old.modelID)
		evicted = append(evicted, old)
	}
	g.mx.loadedModels.Set(float64(len(g.entries)))
	g.mu.Unlock()
	for _, old := range evicted {
		g.mx.evictions.Inc()
		// An entry can be evicted while its initial load is still in
		// flight, and the load creates the per-model series before ready
		// closes, so drop them from a goroutine that waits for that
		// instead of racing the loader.
		go func(old *entry) {
			<-old.ready
			// Keep the series if the model was re-admitted meanwhile. The
			// check and the delete share g.mu, and a new slot creates its
			// series only after admission under g.mu, so they survive.
			g.mu.Lock()
			defer g.mu.Unlock()
			if _, resurrected := g.entries[old.modelID]; !resurrected {
				g.mx.staleServes.Delete(old.modelID)
				g.mx.servedVersion.Delete(old.modelID)
				g.mx.refreshAge.Delete(old.modelID)
			}
		}(old)
	}

	// Load outside the lock: the fetch can take a while and must not
	// block predictions on other models.
	srv, err := g.load(ctx, modelID)
	if err != nil {
		g.mx.loadErrs.Inc()
		e.loadErr = err
		close(e.ready)
		// Drop the failed slot so a later request retries the load.
		g.mu.Lock()
		if g.entries[modelID] == e {
			g.ll.Remove(e.el)
			delete(g.entries, modelID)
			g.mx.loadedModels.Set(float64(len(g.entries)))
		}
		g.mu.Unlock()
		return nil, "miss", err
	}
	e.cur.Store(srv)
	e.lastOK.Store(time.Now().UnixNano())
	g.mx.loads.Inc()
	e.mxStale = g.mx.staleServes.With(modelID)
	g.setVersionGauge(e, &srv.version)
	g.registerAgeGauge(e)
	close(e.ready)
	return e, "miss", nil
}

// registerAgeGauge publishes how long ago a model last confirmed its
// production pointer — the operator's "how stale could this answer be"
// number. The closure reads one atomic, so it is safe under the metric
// registry's snapshot lock.
func (g *Gateway) registerAgeGauge(e *entry) {
	g.mx.refreshAge.With(e.modelID).SetFunc(func() float64 {
		ns := e.lastOK.Load()
		if ns == 0 {
			return -1
		}
		return time.Since(time.Unix(0, ns)).Seconds()
	})
}

// productionVersion resolves a model's promoted version, propagating the
// trace when the source supports it.
func (g *Gateway) productionVersion(ctx context.Context, modelID string) (api.VersionRecord, error) {
	if cs, ok := g.src.(ctxSource); ok {
		return cs.ProductionVersionCtx(ctx, modelID)
	}
	return g.src.ProductionVersion(modelID)
}

// fetchBlob downloads an instance blob, propagating the trace when the
// source supports it.
func (g *Gateway) fetchBlob(ctx context.Context, instanceID string) ([]byte, error) {
	if cs, ok := g.src.(ctxSource); ok {
		return cs.FetchBlobCtx(ctx, instanceID)
	}
	return g.src.FetchBlob(instanceID)
}

// load resolves a model's production pointer to a deserialized learner.
func (g *Gateway) load(ctx context.Context, modelID string) (srv *served, err error) {
	ctx, span := trace.Start(ctx, "serve.load")
	if span != nil {
		span.Annotate("model", modelID)
		defer func() { span.EndErr(err) }()
	}
	v, err := g.productionVersion(ctx, modelID)
	if err != nil {
		return nil, fmt.Errorf("serve: production version of model %s: %w", modelID, err)
	}
	if v.InstanceID == "" {
		return nil, fmt.Errorf("serve: production version %s of model %s carries no instance", v.ID, modelID)
	}
	blob, err := g.fetchBlob(ctx, v.InstanceID)
	if err != nil {
		return nil, fmt.Errorf("serve: fetch blob of instance %s: %w", v.InstanceID, err)
	}
	learner, err := g.loader.Load(blob)
	if err != nil {
		return nil, fmt.Errorf("serve: instance %s: %w", v.InstanceID, err)
	}
	if span != nil {
		span.AnnotateInt("blob_bytes", int64(len(blob)))
		span.Annotate("learner", learner.Name())
	}
	return &served{
		learner:  learner,
		learnerN: learner.Name(),
		version:  v,
		loadedAt: time.Now(),
	}, nil
}

// refreshLoop polls production pointers until Close.
func (g *Gateway) refreshLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.opts.RefreshInterval)
	defer t.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-t.C:
			g.RefreshAll()
		}
	}
}

// RefreshAll re-checks every loaded model's production pointer once,
// hot-swapping any whose promoted instance changed. Exported so tests and
// operators can force a refresh instead of waiting out the interval.
func (g *Gateway) RefreshAll() {
	g.mu.Lock()
	es := make([]*entry, 0, len(g.entries))
	for _, e := range g.entries {
		es = append(es, e)
	}
	g.mu.Unlock()
	for _, e := range es {
		select {
		case <-e.ready:
		default:
			continue // initial load still in flight
		}
		if e.loadErr == nil {
			g.refresh(e)
		}
	}
}

// refresh re-checks one model. Any failure leaves the current learner
// serving and marks the model stale — degradation, not an outage. When the
// gateway has a tracer, each refresh may start a trace of its own (no
// inbound request exists to ride), so hot swaps are attributable end to
// end: the swap's Gallery calls carry the trace to galleryd.
func (g *Gateway) refresh(e *entry) {
	ctx, span := g.tracer.StartLocal(context.Background(), "serve.refresh")
	if span != nil {
		span.Annotate("model", e.modelID)
	}
	g.mx.refreshes.Inc()
	v, err := g.productionVersion(ctx, e.modelID)
	if err != nil {
		e.stale.Store(true)
		g.mx.refreshErrs.Inc()
		span.EndErr(err)
		return
	}
	cur := e.cur.Load()
	if cur != nil && cur.version.ID == v.ID {
		e.stale.Store(false)
		e.lastOK.Store(time.Now().UnixNano())
		if span != nil {
			span.Annotate("swap", "false")
		}
		span.End()
		return
	}
	if v.InstanceID == "" {
		e.stale.Store(true)
		g.mx.refreshErrs.Inc()
		span.Fail("production version carries no instance")
		span.End()
		return
	}
	blob, err := g.fetchBlob(ctx, v.InstanceID)
	if err != nil {
		e.stale.Store(true)
		g.mx.refreshErrs.Inc()
		span.EndErr(err)
		return
	}
	learner, err := g.loader.Load(blob)
	if err != nil {
		e.stale.Store(true)
		g.mx.refreshErrs.Inc()
		span.EndErr(err)
		return
	}
	e.cur.Store(&served{
		learner:  learner,
		learnerN: learner.Name(),
		version:  v,
		loadedAt: time.Now(),
	})
	e.swaps.Add(1)
	e.stale.Store(false)
	e.lastOK.Store(time.Now().UnixNano())
	if e.health != nil {
		// Discard the in-progress window: one window must not mix two
		// instances' output distributions.
		e.health.reset(time.Now())
	}
	g.mx.swaps.Inc()
	g.setVersionGauge(e, &v)
	g.reportSwap(e.modelID, cur, &v, span)
	if span != nil {
		span.Annotate("swap", "true")
		span.Annotate("version", v.Version)
	}
	span.End()
}

// reportSwap hands one serve.swap audit event to the configured sink. The
// gateway runs without a DAL, so this is how hot swaps reach the same
// trail as the promotions that caused them — joined by model ID and by
// the refresh trace.
func (g *Gateway) reportSwap(modelID string, prev *served, v *api.VersionRecord, span *trace.Span) {
	if g.opts.AuditSink == nil {
		return
	}
	before := "none"
	if prev != nil {
		before = fmt.Sprintf("v%s (%s)", prev.version.Version, prev.version.InstanceID)
	}
	g.opts.AuditSink(api.AuditEvent{
		Actor:      "gateway:" + g.opts.Name,
		Action:     audit.ActionServeSwap,
		EntityType: audit.EntityInstance,
		EntityID:   v.InstanceID,
		ModelID:    modelID,
		Before:     before,
		After:      fmt.Sprintf("v%s (%s)", v.Version, v.InstanceID),
		TraceID:    span.TraceIDString(),
	})
}

// setVersionGauge publishes which version a model serves, encoded as
// major*1000 + minor so promotions show up as visible steps.
func (g *Gateway) setVersionGauge(e *entry, v *api.VersionRecord) {
	g.mx.servedVersion.With(e.modelID).Set(float64(v.Major)*1000 + float64(v.Minor))
}

// Status snapshots every loaded model.
func (g *Gateway) Status() []api.ServingModel {
	g.mu.Lock()
	es := make([]*entry, 0, len(g.entries))
	for el := g.ll.Front(); el != nil; el = el.Next() {
		es = append(es, el.Value.(*entry))
	}
	g.mu.Unlock()
	out := make([]api.ServingModel, 0, len(es))
	for _, e := range es {
		select {
		case <-e.ready:
		default:
			continue
		}
		srv := e.cur.Load()
		if srv == nil {
			continue
		}
		out = append(out, api.ServingModel{
			ModelID:    e.modelID,
			InstanceID: srv.version.InstanceID,
			VersionID:  srv.version.ID,
			Version:    srv.version.Version,
			Learner:    srv.learnerN,
			LoadedAt:   srv.loadedAt,
			Swaps:      e.swaps.Load(),
			Stale:      e.stale.Load(),
		})
	}
	return out
}
