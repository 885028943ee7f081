package daemon

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/core"
	"gallery/internal/health"
	"gallery/internal/incident"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	"gallery/internal/obs/profile"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/server"
	"gallery/internal/slo"
	"gallery/internal/tenant"
	"gallery/internal/wal"
)

// Galleryd is an assembled registry service: stores, registry core, rule
// engine, health, SLO, incidents, profiler and the HTTP server, all
// reporting into one metrics registry.
type Galleryd struct {
	obs                          *obs.Registry
	meta                         *relstore.Store
	reg                          *core.Registry
	slo                          *slo.Service
	srv                          *server.Server
	bootstrapID, bootstrapSecret string
	stops                        closers
}

// NewGalleryd builds galleryd from cfg and starts its background loops.
// The returned value serves nothing by itself: mount Handler on a
// listener. On error, whatever was already started is stopped again.
func NewGalleryd(cfg GallerydConfig) (_ *Galleryd, err error) {
	d := &Galleryd{obs: obs.NewRegistry()}
	defer func() {
		if err != nil {
			d.stops.close()
		}
	}()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	tracer, err := cfg.tracer("galleryd", nil)
	if err != nil {
		return nil, err
	}

	var blobs *blobstore.Store
	if cfg.Mem {
		d.meta = relstore.NewMemory()
		d.meta.Instrument(d.obs)
		blobs = blobstore.NewMemory(blobstore.Options{})
	} else {
		if err := os.MkdirAll(cfg.Data, 0o755); err != nil {
			return nil, fmt.Errorf("create data dir: %w", err)
		}
		walPath := filepath.Join(cfg.Data, "meta.wal")
		opening := time.Now()
		if d.meta, err = relstore.Open(walPath, wal.Options{Sync: cfg.Fsync}); err != nil {
			return nil, fmt.Errorf("open metadata store: %w", err)
		}
		d.stops.add(d.meta.Close)
		d.meta.Instrument(d.obs)
		// Why this restart took what it took, and whether -compact-mb still
		// has old-format records to rewrite.
		records, legacy := d.meta.Replayed()
		log.Printf("galleryd: replayed metadata WAL: %d records (%d legacy-format), %d bytes in %.3fs",
			records, legacy, d.meta.LogSize(), time.Since(opening).Seconds())
		if cfg.CompactMB > 0 && d.meta.LogSize() > cfg.CompactMB<<20 {
			before := d.meta.LogSize()
			if err := d.meta.Compact(walPath); err != nil {
				return nil, fmt.Errorf("compact metadata WAL: %w", err)
			}
			log.Printf("galleryd: compacted metadata WAL %d -> %d bytes", before, d.meta.LogSize())
		}
		opening = time.Now()
		if blobs, err = blobstore.NewDisk(filepath.Join(cfg.Data, "blobs"), blobstore.Options{}); err != nil {
			return nil, fmt.Errorf("open blob store: %w", err)
		}
		d.stops.add(blobs.Close)
		st, note := blobs.Stats(), ""
		switch {
		case st.Imported > 0:
			note = fmt.Sprintf(" (imported %d legacy files)", st.Imported)
		case st.Compacted:
			note = " (compacted)"
		}
		log.Printf("galleryd: opened blob store: %d blobs, %d live / %d dead bytes in %.3fs%s",
			st.Blobs, st.LiveBytes, st.DeadBytes, time.Since(opening).Seconds(), note)
	}
	blobs.Instrument(d.obs)

	if d.reg, err = core.New(d.meta, blobs, core.Options{AuditKeep: cfg.AuditKeep, Obs: d.obs}); err != nil {
		return nil, fmt.Errorf("init registry: %w", err)
	}
	repo := rules.NewRepo(nil)
	engine := rules.NewEngine(d.reg, repo, nil)
	engine.Instrument(d.obs)
	// "deploy" promotes the triggering instance; watching gateways hot-swap
	// to it on their next refresh.
	engine.RegisterAction("deploy", rules.DeployAction(d.reg))

	// The local profiler exports into the fleet store gateways also ship
	// into.
	fleet := profile.NewFleet(0)
	profiler := cfg.profiler("galleryd", d.obs, fleet.Ingest)
	d.stops.add(noErr(profiler.Stop))

	// The recorder tails the log ring; the health monitor and SLO evaluator
	// are bound to it later (they want it as a sink, it wants their state).
	logs, accessLog := cfg.logging()
	recorder, err := incident.Open(d.reg.DAL(), incident.Config{
		Obs: d.obs, Tracer: tracer, Logs: logs, Audit: d.reg.Audit(), Profiles: profiler.Ring(),
		Gateway: cfg.IncidentGateway, GatewayToken: cfg.IncidentGatewayToken,
		Keep: cfg.IncidentKeep, Debounce: cfg.IncidentDebounce,
	})
	if err != nil {
		return nil, fmt.Errorf("open incident recorder: %w", err)
	}
	engine.RegisterAction("capture", incident.CaptureAction(recorder))
	engine.Start(cfg.Workers)
	d.stops.add(noErr(engine.Stop))

	// Health events reach the flight recorder first, so a bundle shows the
	// state that tripped it rather than what a rule did about it.
	monitor := health.New(d.reg, health.Config{
		Metric: cfg.HealthMetric, ReferenceWindows: cfg.HealthRefWindows,
		KeepWindows: cfg.HealthKeepWindows, Interval: cfg.HealthInterval, Obs: d.obs,
		Events: func(ctx context.Context, ev obs.Event) {
			recorder.Event(ctx, ev)
			engine.Event(ctx, ev)
		},
	})
	if err := monitor.Recover(); err != nil {
		return nil, fmt.Errorf("recover health windows: %w", err)
	}
	monitor.Start()
	d.stops.add(noErr(monitor.Stop))
	recorder.BindHealth(monitor)

	opts := server.Options{
		Obs: d.obs, Tracer: tracer, Pprof: cfg.Pprof, Health: monitor, Logs: logs,
		AccessLog: accessLog, Incidents: recorder, Profiles: fleet,
	}
	if cfg.Auth {
		// Namespaces, token hashes and quota usage replay out of the same
		// WAL the models do.
		tm, err := cfg.tenants(d.meta, tenant.Options{Audit: d.reg.Audit(), Obs: d.obs})
		if err != nil {
			return nil, err
		}
		if tm.TokenCount() == 0 {
			// First authed boot with no credentials would lock everyone
			// out; mint the bootstrap admin, whose secret is shown once
			// (it is never stored).
			secret, tok, err := tm.MintToken(context.Background(), tenant.DefaultNamespace, "bootstrap-admin", tenant.RoleOperator)
			if err != nil {
				return nil, fmt.Errorf("mint bootstrap token: %w", err)
			}
			d.bootstrapID, d.bootstrapSecret = tok.ID, secret
		}
		opts.Tenants = tm
	}

	// The SLO evaluator reads the RED series the server records. Model
	// scope lives in the gateway (creates fail with slo.ErrNoSource), and a
	// namespace burn has no instance for a rule, so only the recorder hears it.
	red := httpmw.NewRED(d.obs)
	d.slo, err = slo.Open(d.meta, slo.VecSource{Requests: red.Requests, Errors: red.Errors, Latency: red.Latency},
		slo.Config{Tick: cfg.SLOInterval, Obs: d.obs, Audit: d.reg.Audit(), Events: recorder.Event})
	if err != nil {
		return nil, fmt.Errorf("open slo store: %w", err)
	}
	if cfg.SLOInterval > 0 {
		d.slo.Start()
		d.stops.add(noErr(d.slo.Stop))
	}
	opts.SLO = d.slo
	recorder.BindSLO(d.slo)

	// Start-up assembly wrote schemas, the token-file seed and maybe the
	// bootstrap token without waiting for the disk; commit once before
	// anything is shown or served.
	if err := d.meta.Commit(); err != nil {
		return nil, fmt.Errorf("commit start-up state: %w", err)
	}

	d.srv = server.NewWith(d.reg, repo, engine, opts)
	// Last registered, so first to run on Close: drain queued rule-engine
	// triggers while everything they touch is still up, then take the
	// final snapshot.
	d.stops.add(func() error {
		engine.Flush()
		if !cfg.DumpMetrics {
			return nil
		}
		fmt.Fprintln(os.Stderr, "galleryd: final metrics snapshot:")
		return d.obs.WriteJSON(os.Stderr)
	})
	return d, nil
}

// Handler is galleryd's HTTP API.
func (d *Galleryd) Handler() http.Handler { return d.srv }

// Bootstrap reports the operator token minted on this start, when -auth
// found no credentials at all: its ID and its secret, which exists
// nowhere else. Both are empty otherwise.
func (d *Galleryd) Bootstrap() (id, secret string) { return d.bootstrapID, d.bootstrapSecret }

// Counts reports the registry's model, instance and metric rows.
func (d *Galleryd) Counts() (models, instances, metrics int) { return d.reg.Counts() }

// Close drains queued rule-engine triggers, dumps the metrics registry to
// stderr under -dump-metrics, and stops every component in the reverse of
// the order it started in, the metadata store last.
func (d *Galleryd) Close() error { return d.stops.close() }
