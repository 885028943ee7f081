package daemon

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strings"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/serve"
	"gallery/internal/tenant"
)

// Galleryserve is an assembled serving gateway: model cache, telemetry
// shipper back to galleryd and the HTTP handler, all reporting
// into one metrics registry.
type Galleryserve struct {
	handler *serve.Handler
	log     *slog.Logger
	ready   []any
	stops   closers
}

// NewGalleryserve builds galleryserve from cfg and starts its background
// loops. On error, whatever was already started is stopped again.
func NewGalleryserve(cfg GalleryserveConfig) (_ *Galleryserve, err error) {
	g, reg := &Galleryserve{}, obs.NewRegistry()
	defer func() {
		if err != nil {
			g.stops.close()
		}
	}()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.Auth && cfg.TokenFile == "" {
		return nil, errors.New("-auth requires -token-file (a gateway has no durable store to mint from)")
	}
	cfg.sampling()
	ring, lg, accessLog := cfg.logging("galleryserve")
	g.log = lg
	cl := client.NewWith(cfg.Gallery, client.Options{Retries: gatewayRetries, Actor: "gateway:" + cfg.Name, Token: cfg.Token})
	// Kept traces, health windows and hot-swap audit events ride one
	// queue through the one client (same token; a slow galleryd costs
	// counted drops, never latency). It closes after all that feeds it.
	ship := obs.NewShipper(reg)
	g.stops.add(noErr(ship.Close))
	// Kept traces land in galleryd's trace buffer, so a predict request
	// reads as ONE trace spanning both processes there.
	tracer, err := cfg.tracer("galleryserve", func(spans []trace.SpanData) {
		ship.Export(obs.ChannelTraces, func(ctx context.Context) error { return cl.ExportSpans(ctx, spans) })
	})
	if err != nil {
		return nil, err
	}

	gwOpts := serve.Options{
		Name: cfg.Name, MaxModels: cfg.MaxModels, RefreshInterval: cfg.Refresh,
		Obs: reg, Tracer: tracer,
		// Hot swaps land on galleryd's lifecycle audit trail next to the
		// promotions that caused them.
		AuditSink: func(ev api.AuditEvent) {
			ship.Export(obs.ChannelAudit, func(ctx context.Context) error { return cl.ReportAuditEvent(ctx, ev) })
		},
	}
	if cfg.HealthFlush > 0 {
		// Prediction sketches stream back to galleryd's health monitor.
		gwOpts.HealthSink = func(req api.HealthObservationsRequest) {
			ship.Export(obs.ChannelHealth, func(ctx context.Context) error { return cl.ReportHealthObservations(ctx, req) })
		}
		gwOpts.HealthInterval = cfg.HealthFlush
	}
	gw := serve.New(cl, gwOpts)
	g.stops.add(noErr(gw.Close))

	for _, id := range strings.Split(cfg.Preload, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		// A throwaway query that only forces the load.
		if _, err := gw.PredictCtx(context.Background(), id, forecast.Context{History: []float64{1, 1, 1, 1}}); err != nil {
			lg.Warn("preload failed", "model", id, "err", err)
		}
	}

	opts := []serve.HandlerOption{serve.WithTracer(tracer), serve.WithLogRing(ring),
		serve.WithAccessLog(accessLog)}
	if cfg.Pprof {
		opts = append(opts, serve.WithPprof())
	}
	if cfg.Auth {
		// With no metadata store, the control plane lives in memory and is
		// rebuilt from the token file on every boot.
		store := relstore.NewMemory()
		store.Instrument(reg)
		tm, err := cfg.tenants(store, tenant.Options{Obs: reg})
		if err != nil {
			return nil, err
		}
		opts = append(opts, serve.WithAuthorizer(tm))
	}
	g.handler = serve.NewHandler(gw, opts...)
	g.ready = []any{"gallery", cfg.Gallery, "refresh", cfg.Refresh.String()}
	return g, nil
}

// Handler is galleryserve's HTTP API.
func (g *Galleryserve) Handler() http.Handler { return g.handler }

// Logger is the process's logger.
func (g *Galleryserve) Logger() *slog.Logger { return g.log }

// Ready names the galleryd the gateway serves from, for Serve's ready
// record.
func (g *Galleryserve) Ready() []any { return g.ready }

// Close stops the producers of telemetry first and the shipper last: the
// gateway (whose refresh loop may report a last hot swap and whose health
// loop cuts a last window), then the shipper, which sends what they and
// the requests already served queued.
func (g *Galleryserve) Close() error { return g.stops.close() }
