package serve

import (
	"sync/atomic"
	"time"

	"gallery/internal/api"
	"gallery/internal/obs/sketch"
)

// This file is the gateway side of the continuous model-health pipeline
// (paper §3.6 made continuous): every prediction is folded into per-model
// distribution sketches — predicted values and request latency — plus
// request/stale counters, all lock-free and allocation-free on the hot
// path. A background loop periodically cuts the window and hands it to
// Options.HealthSink; galleryserve queues it on its telemetry shipper for
// galleryd's POST /v1/health/observations, where the health monitor
// compares live windows against each model's reference distribution.

// Sketch geometries. Values cover forecast magnitudes (defaults span
// 1e-4..1e9); latencies cover 1µs..1000s in seconds.
var (
	valueSketchCfg   = sketch.Config{}
	latencySketchCfg = sketch.Config{Lo: 1e-6, Hi: 1e3, Buckets: 128}
)

// entryHealth is one model's live observation window. Sketches sit behind
// atomic pointers so a flush swaps in fresh ones and snapshots the old
// window without stopping traffic; an observation racing the cut lands in
// one window or the next, never lost and never torn.
type entryHealth struct {
	values      atomic.Pointer[sketch.Sketch]
	latency     atomic.Pointer[sketch.Sketch]
	requests    atomic.Int64
	staleServes atomic.Int64
	windowStart atomic.Int64 // unix nanos
}

func newEntryHealth(now time.Time) *entryHealth {
	h := &entryHealth{}
	h.values.Store(sketch.New(valueSketchCfg))
	h.latency.Store(sketch.New(latencySketchCfg))
	h.windowStart.Store(now.UnixNano())
	return h
}

// record folds one served prediction into the current window. Hot path:
// atomic adds only, no allocation.
func (h *entryHealth) record(value, latSeconds float64, stale bool) {
	h.requests.Add(1)
	if stale {
		h.staleServes.Add(1)
	}
	h.values.Load().Observe(value)
	h.latency.Load().Observe(latSeconds)
}

// cut closes the current window and opens a fresh one, returning the
// closed window's observation. ok is false when the window saw no
// traffic (the window still advances).
func (h *entryHealth) cut(now time.Time) (api.HealthObservation, bool) {
	start := time.Unix(0, h.windowStart.Swap(now.UnixNano()))
	req := h.requests.Swap(0)
	if req == 0 {
		return api.HealthObservation{}, false
	}
	stale := h.staleServes.Swap(0)
	vals := h.values.Swap(sketch.New(valueSketchCfg))
	lat := h.latency.Swap(sketch.New(latencySketchCfg))
	return api.HealthObservation{
		WindowStart: start,
		WindowEnd:   now,
		Requests:    req,
		StaleServes: stale,
		Values:      vals.Snapshot(),
		Latency:     lat.Snapshot(),
	}, true
}

// reset discards the current window — used after a hot swap so one window
// never mixes two instances' output distributions.
func (h *entryHealth) reset(now time.Time) {
	h.cut(now)
}

// healthLoop flushes observation windows until Close, with a final flush
// on the way out so a clean shutdown keeps its last partial window.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.done:
			g.FlushHealth()
			return
		case <-t.C:
			g.FlushHealth()
		}
	}
}

// FlushHealth cuts every loaded model's observation window and hands the
// non-empty ones to the HealthSink in one request. Exported so tests and
// experiments can flush deterministically instead of waiting out the
// interval. A window the sink fails to deliver is lost (sketches are
// statistics, not ledgers); the shipper's loss counters and the monitor's
// missing-window view make the gap visible.
func (g *Gateway) FlushHealth() {
	if g.opts.HealthSink == nil {
		return
	}
	g.mu.Lock()
	es := make([]*entry, 0, len(g.entries))
	for _, e := range g.entries {
		es = append(es, e)
	}
	g.mu.Unlock()

	now := time.Now()
	var out []api.HealthObservation
	for _, e := range es {
		if e.health == nil {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue // initial load still in flight
		}
		if e.loadErr != nil {
			continue
		}
		o, ok := e.health.cut(now)
		if !ok {
			continue
		}
		o.ModelID = e.modelID
		if srv := e.cur.Load(); srv != nil {
			o.InstanceID = srv.version.InstanceID
			o.VersionID = srv.version.ID
			o.Version = srv.version.Version
		}
		out = append(out, o)
	}
	if len(out) > 0 {
		g.opts.HealthSink(api.HealthObservationsRequest{Gateway: g.opts.Name, Observations: out})
	}
}
