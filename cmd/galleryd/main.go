// Command galleryd runs the Gallery model-management service: a stateless
// JSON/HTTP server over a durable metadata store (write-ahead logged) and
// a replicated blob store, with the orchestration rule engine attached.
//
// Usage:
//
//	galleryd -addr :8440 -data /var/lib/gallery
//	galleryd -addr :8440 -mem            # volatile, for demos
//	galleryd -addr :8440 -mem -access-log  # JSON access log on stderr
//	galleryd -addr :8440 -auth           # multi-tenant: bearer tokens, roles, quotas
//	galleryd -addr :8440 -auth -token-file tokens.json  # with pre-shared credentials
//
// With -auth and no existing tokens, a bootstrap operator token for the
// "default" namespace is minted and its secret printed once at startup.
//
// An SLO evaluator ticks every -slo-interval, judging declared burn-rate
// objectives (POST /v1/slo, `galleryctl slo`) against the per-tenant RED
// metrics; metrics are scrapable at GET /v1/debug/metrics/prom.
//
// On SIGINT/SIGTERM the server drains, dumps the full metric registry
// snapshot (the same JSON served at /v1/debug/metrics) to stderr, and
// exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"gallery/internal/blobstore"
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
	"gallery/internal/server"
	"gallery/internal/slo"
	"gallery/internal/tenant"
	"gallery/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":8440", "listen address")
		dataDir   = flag.String("data", "gallery-data", "data directory for metadata WAL and blob replicas")
		mem       = flag.Bool("mem", false, "run fully in memory (no durability)")
		fsync     = flag.Bool("fsync", false, "fsync the metadata WAL before every acknowledgement: a 2xx on a mutating request means its records are on disk")
		workers   = flag.Int("workers", 4, "rule engine worker goroutines")
		compact   = flag.Int64("compact-mb", 256, "compact the metadata WAL at startup when larger than this many MiB (0 disables)")
		accessLog = flag.Bool("access-log", false, "write a JSON access-log line per request to stderr")
		dumpStats = flag.Bool("dump-metrics", true, "dump the metric registry snapshot to stderr on shutdown")
		traceSpec = flag.String("trace-sample", "errslow:250ms", "trace sampler: never | always | errslow:<dur> | <probability 0..1>")
		traceCap  = flag.Int("trace-buffer", 256, "completed traces kept for /v1/debug/traces")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /v1/debug/pprof/ (profiles can leak memory contents; opt-in)")

		healthEvery   = flag.Duration("health-interval", 30*time.Second, "model-health evaluation period (negative disables the monitor loop)")
		healthRefWins = flag.Int("health-ref-windows", 3, "observation windows that form a model's reference distribution")
		healthKeep    = flag.Int("health-keep-windows", 48, "persisted health windows kept per model")
		healthMetric  = flag.String("health-metric", "mape", "production error metric for the monitor's drift/skew checks")

		sloEvery = flag.Duration("slo-interval", 15*time.Second, "SLO burn-rate evaluation period (negative disables the evaluator)")

		incKeep     = flag.Int("incident-keep", 32, "incident bundles retained before the oldest are pruned (negative disables pruning)")
		incDebounce = flag.Duration("incident-debounce", 5*time.Minute, "minimum interval between captures of the same scope (negative disables)")
		incGateway  = flag.String("incident-gateway", "", "serving gateway base URL pulled into incident bundles via GET /v1/debug/bundle (empty: local snapshot only)")
		incGwToken  = flag.String("incident-gateway-token", "", "bearer token for the incident gateway pull when the gateway runs -auth")

		profEvery    = flag.Duration("profile-interval", profile.DefaultInterval, "continuous-profiler cycle period (negative disables the capture loop)")
		profWindow   = flag.Duration("profile-window", profile.DefaultWindow, "CPU sampling window per profiler cycle")
		profHz       = flag.Int("profile-hz", profile.DefaultHz, "CPU profile sample rate")
		profBaseline = flag.String("profile-baseline", "", "per-process CPU baseline JSON (PROFILE_galleryd.json); regressions against it raise profile.regression rule events")
		profFactor   = flag.Float64("profile-factor", profile.DefaultFactor, "flag a function when its CPU self-share exceeds baseline by this factor")
		mutexFrac    = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction: sample 1/n mutex contention events (0 disables)")
		blockRate    = flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate: sample blocking events >= n ns (0 disables)")

		logLevel  = flag.String("log-level", "info", "min level entering the /v1/debug/logs ring: debug|info|warn|error")
		logBuffer = flag.Int("log-buffer", 1024, "structured log lines kept for /v1/debug/logs")
		auditKeep = flag.Int("audit-keep", 256, "audit events retained per entity (negative disables pruning)")

		authOn    = flag.Bool("auth", false, "enforce the multi-tenant control plane: bearer tokens, roles, quotas, rate limits")
		tokenFile = flag.String("token-file", "", "JSON seed of namespaces and pre-shared tokens applied at boot (see internal/tenant.Seed)")
	)
	flag.Parse()

	sampler, serr := trace.ParseSampler(*traceSpec)
	if serr != nil {
		log.Fatalf("galleryd: %v", serr)
	}
	tracer := trace.New(trace.Options{Service: "galleryd", Sampler: sampler, Capacity: *traceCap})

	var (
		meta  *relstore.Store
		blobs *blobstore.Store
		err   error
	)
	if *mem {
		meta = relstore.NewMemory()
		blobs = blobstore.NewMemory(blobstore.Options{})
	} else {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("galleryd: create data dir: %v", err)
		}
		walPath := filepath.Join(*dataDir, "meta.wal")
		opening := time.Now()
		meta, err = relstore.Open(walPath, wal.Options{Sync: *fsync})
		if err != nil {
			log.Fatalf("galleryd: open metadata store: %v", err)
		}
		defer meta.Close()
		// Why this restart took what it took, and whether -compact-mb still
		// has old-format records to rewrite.
		records, legacy := meta.Replayed()
		log.Printf("galleryd: replayed metadata WAL: %d records (%d legacy-format), %d bytes in %.3fs",
			records, legacy, meta.LogSize(), time.Since(opening).Seconds())
		if *compact > 0 && meta.LogSize() > *compact<<20 {
			before := meta.LogSize()
			if err := meta.Compact(walPath); err != nil {
				log.Fatalf("galleryd: compact metadata WAL: %v", err)
			}
			log.Printf("galleryd: compacted metadata WAL %d -> %d bytes", before, meta.LogSize())
		}
		blobs, err = blobstore.NewDisk(filepath.Join(*dataDir, "blobs"), blobstore.Options{})
		if err != nil {
			log.Fatalf("galleryd: open blob store: %v", err)
		}
	}

	reg, err := core.New(meta, blobs, core.Options{AuditKeep: *auditKeep})
	if err != nil {
		log.Fatalf("galleryd: init registry: %v", err)
	}
	repo := rules.NewRepo(nil)
	engine := rules.NewEngine(reg, repo, nil)
	// "deploy" closes the loop with the serving tier: a rule firing it
	// promotes the triggering instance, and every watching gateway hot-swaps
	// to it on its next refresh.
	engine.RegisterAction("deploy", rules.DeployAction(reg))

	// Lock-contention profiles are opt-in: sampling costs a little on every
	// contended mutex/blocking op, so the default leaves both off and the
	// profiler's mutex/block summaries empty.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	// Continuous profiling: the local capture loop exports into the fleet
	// store (which gateways also ship into over POST /v1/debug/profile),
	// and a baseline-armed detector turns hot-path regressions into
	// profile.regression rule events.
	fleet := profile.NewFleet(0)
	var detector *profile.Detector
	if *profBaseline != "" {
		base, err := profile.LoadBaseline(*profBaseline)
		if err != nil {
			log.Fatalf("galleryd: load profile baseline: %v", err)
		}
		detector = profile.NewDetector(profile.DetectorConfig{
			Baseline: base,
			Factor:   *profFactor,
			Sink:     engine.Event,
		})
	}
	profiler := profile.New(profile.Config{
		Process:  "galleryd",
		Window:   *profWindow,
		Interval: *profEvery,
		Hz:       *profHz,
		Detector: detector,
		Exporter: fleet.Ingest,
	})
	if *profEvery > 0 {
		profiler.Start()
		defer profiler.Stop()
	}

	// Structured logs land in a bounded in-memory ring served at
	// GET /v1/debug/logs, trace-correlated; -access-log additionally tees
	// them to stderr as JSON lines. Built before the flight recorder so
	// bundles can tail it.
	logRing := obslog.NewRing(*logBuffer)

	// The incident flight recorder: SLO burns, health degradations, the
	// "capture" rule action, and POST /v1/incidents snapshot the process's
	// observability state into durable bundles, debounced per scope. The
	// health monitor and SLO evaluator are bound after construction — they
	// want the recorder as a sink, the recorder wants their state in
	// bundles.
	recorder, err := incident.Open(reg.DAL(), incident.Config{
		Tracer:       tracer,
		Logs:         logRing,
		Audit:        reg.Audit(),
		Profiles:     profiler.Ring(),
		Gateway:      *incGateway,
		GatewayToken: *incGwToken,
		Keep:         *incKeep,
		Debounce:     *incDebounce,
	})
	if err != nil {
		log.Fatalf("galleryd: open incident recorder: %v", err)
	}
	engine.RegisterAction("capture", incident.CaptureAction(recorder))
	engine.Start(*workers)
	defer engine.Stop()

	// Continuous model health: gateways flush distribution sketches in,
	// the monitor judges them on a ticker, and what it publishes reaches
	// the flight recorder first (the bundle shows the state that tripped
	// it, not what a rule did about it), then the rule engine.
	monitor := health.New(reg, health.Config{
		Metric:           *healthMetric,
		ReferenceWindows: *healthRefWins,
		KeepWindows:      *healthKeep,
		Interval:         *healthEvery,
		Events: func(ctx context.Context, ev obs.Event) {
			recorder.Event(ctx, ev)
			engine.Event(ctx, ev)
		},
	})
	if err := monitor.Recover(); err != nil {
		log.Fatalf("galleryd: recover health windows: %v", err)
	}
	monitor.Start()
	defer monitor.Stop()
	recorder.BindHealth(monitor)

	opts := server.Options{
		Tracer: tracer, Pprof: *pprofOn, Health: monitor,
		Logs:      logRing,
		LogLevel:  obslog.ParseLevel(*logLevel),
		Incidents: recorder,
		Profiles:  fleet,
	}
	var bootstrap string // printed only once the token behind it is durable
	if *authOn {
		// The control plane shares the metadata store, so namespaces,
		// token hashes, and quota usage replay out of the same WAL the
		// models do.
		tm, err := tenant.Open(meta, tenant.Options{Audit: reg.Audit()})
		if err != nil {
			log.Fatalf("galleryd: open tenant control plane: %v", err)
		}
		if *tokenFile != "" {
			seed, err := tenant.LoadSeed(*tokenFile)
			if err != nil {
				log.Fatalf("galleryd: %v", err)
			}
			if err := tm.ApplySeed(context.Background(), seed); err != nil {
				log.Fatalf("galleryd: apply token file: %v", err)
			}
		}
		if tm.TokenCount() == 0 {
			// First authed boot with no credentials would lock everyone
			// out; mint the bootstrap admin and print the secret exactly
			// once (it is never stored).
			secret, tok, err := tm.MintToken(context.Background(), tenant.DefaultNamespace, "bootstrap-admin", tenant.RoleOperator)
			if err != nil {
				log.Fatalf("galleryd: mint bootstrap token: %v", err)
			}
			bootstrap = fmt.Sprintf("galleryd: minted bootstrap operator token %s — save this secret, it is shown once:\n%s\n", tok.ID, secret)
		}
		opts.Tenants = tm
	} else if *tokenFile != "" {
		log.Fatalf("galleryd: -token-file requires -auth")
	}
	if *accessLog {
		opts.AccessLog = os.Stderr
	}

	// The SLO evaluator reads the per-tenant RED vectors the HTTP
	// middleware records (NewRED is get-or-create, so these are the same
	// series the server increments) and persists objectives over the
	// shared WAL. Only namespace-scoped objectives are evaluable here:
	// the predict RED vectors that back model scope live in the serving
	// gateway's process, so model-scoped creates are rejected with
	// slo.ErrNoSource rather than accepted and left at no-data (the
	// gateway-embedded evaluator — see experiments.Sloburn — is where
	// model burns fire the rules engine).
	red := httpmw.NewRED(obs.Default)
	sloSvc, err := slo.Open(meta, slo.VecSource{
		Requests: red.Requests, Errors: red.Errors, Latency: red.Latency,
	}, slo.Config{
		Tick:  *sloEvery,
		Obs:   obs.Default,
		Audit: reg.Audit(),
		// Namespace burns have no instance for a rule to run against, so
		// the recorder is the only subscriber.
		Events: recorder.Event,
	})
	if err != nil {
		log.Fatalf("galleryd: open slo store: %v", err)
	}
	if *sloEvery > 0 {
		sloSvc.Start()
		defer sloSvc.Stop()
	}
	opts.SLO = sloSvc
	recorder.BindSLO(sloSvc)

	// Start-up assembly wrote schemas, the token-file seed and maybe the
	// bootstrap token without waiting for the disk; commit once before
	// anything is shown or served.
	if err := meta.Commit(); err != nil {
		log.Fatalf("galleryd: commit start-up state: %v", err)
	}
	fmt.Print(bootstrap)

	srv := server.NewWith(reg, repo, engine, opts)
	defer srv.Close()

	httpSrv := &http.Server{
		Addr: *addr, Handler: srv,
		// No read or write timeout: a 256 MiB upload is legitimate.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	models, instances, metrics := reg.Counts()
	fmt.Printf("galleryd: serving on %s (models=%d instances=%d metrics=%d, durable=%v)\n",
		*addr, models, instances, metrics, !*mem)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("galleryd: %v", err)
		}
	case sig := <-sigCh:
		log.Printf("galleryd: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("galleryd: shutdown: %v", err)
		}
		cancel()
		srv.Flush() // drain queued rule-engine events before stopping
	}

	if *dumpStats {
		fmt.Fprintln(os.Stderr, "galleryd: final metrics snapshot:")
		if err := obs.Default.WriteJSON(os.Stderr); err != nil {
			log.Printf("galleryd: dump metrics: %v", err)
		}
	}
}
