// Command galleryserve runs the Gallery prediction serving gateway: a
// stateless HTTP tier that pulls promoted model instances out of a
// galleryd and answers forecast queries with them, hot-swapping on
// promotion (the paper's §2 realtime prediction service, closed-loop with
// the §4.2 rule engine).
//
// Usage:
//
//	galleryserve -addr :8441 -gallery http://localhost:8440
//	galleryserve -addr :8441 -gallery http://localhost:8440 -batch 32
//	galleryserve -addr :8441 -auth -token-file tokens.json -token gal_...  # multi-tenant
//
// Predictions:
//
//	curl -s localhost:8441/v1/predict/<model-id> \
//	    -d '{"history":[10,12,11,13,12,14]}'
//
// Per-tenant and per-model RED metrics are recorded on every request and
// exposed for scraping in Prometheus text format at
// GET /v1/debug/metrics/prom (JSON snapshot at /v1/debug/metrics).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/forecast"
	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/profile"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/serve"
	"gallery/internal/tenant"
)

func main() {
	var (
		addr      = flag.String("addr", ":8441", "listen address")
		gallery   = flag.String("gallery", "http://localhost:8440", "galleryd base URL")
		refresh   = flag.Duration("refresh", 5*time.Second, "production-pointer poll interval")
		maxModels = flag.Int("max-models", 64, "LRU bound on concurrently loaded models")
		batch     = flag.Int("batch", 0, "micro-batch size (0 disables batching)")
		preload   = flag.String("preload", "", "comma-separated model IDs to load at startup")
		name      = flag.String("name", "gateway", "gateway name stamped on flushed health observations")
		healthInt = flag.Duration("health-flush", 15*time.Second, "health observation flush period (negative disables health reporting)")
		retries   = flag.Int("retries", 3, "gallery client retry budget per request")
		accessLog = flag.Bool("access-log", false, "write a JSON access-log line per request to stderr")
		traceSpec = flag.String("trace-sample", "errslow:250ms", "trace sampler: never | always | errslow:<dur> | <probability 0..1>")
		traceCap  = flag.Int("trace-buffer", 256, "completed traces kept for /v1/debug/traces")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /v1/debug/pprof/ (profiles can leak memory contents; opt-in)")
		logLevel  = flag.String("log-level", "info", "min level entering the /v1/debug/logs ring: debug|info|warn|error")
		logBuffer = flag.Int("log-buffer", 1024, "structured log lines kept for /v1/debug/logs")

		profEvery    = flag.Duration("profile-interval", profile.DefaultInterval, "continuous-profiler cycle period (negative disables the capture loop)")
		profWindow   = flag.Duration("profile-window", profile.DefaultWindow, "CPU sampling window per profiler cycle")
		profHz       = flag.Int("profile-hz", profile.DefaultHz, "CPU profile sample rate")
		profBaseline = flag.String("profile-baseline", "", "per-process CPU baseline JSON (PROFILE_galleryserve.json); regressions against it are exposed in the profile_regression gauge")
		profFactor   = flag.Float64("profile-factor", profile.DefaultFactor, "flag a function when its CPU self-share exceeds baseline by this factor")
		mutexFrac    = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction: sample 1/n mutex contention events (0 disables)")
		blockRate    = flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate: sample blocking events >= n ns (0 disables)")

		authOn    = flag.Bool("auth", false, "require bearer tokens on this gateway (needs -token-file)")
		tokenFile = flag.String("token-file", "", "JSON seed of namespaces and tokens this gateway accepts (see internal/tenant.Seed)")
		token     = flag.String("token", "", "bearer token this gateway presents to galleryd (when galleryd runs -auth)")
	)
	flag.Parse()

	sampler, err := trace.ParseSampler(*traceSpec)
	if err != nil {
		log.Fatalf("galleryserve: %v", err)
	}
	cl := client.NewWith(*gallery, client.Options{Retries: *retries, Actor: "gateway:" + *name, Token: *token})
	// Everything this gateway tells galleryd that no request waits for —
	// kept traces, profile summaries, hot-swap audit events — rides one
	// queue through the one client, so it carries the same token and a
	// slow galleryd costs drops (telemetry_dropped_total), never latency.
	ship := obs.NewShipper(obs.Default)
	tracer := trace.New(trace.Options{
		Service:  "galleryserve",
		Sampler:  sampler,
		Capacity: *traceCap,
		// Kept traces land in galleryd's trace buffer, so a predict request
		// reads as ONE trace spanning both processes there.
		Exporter: func(spans []trace.SpanData) {
			ship.Export(obs.ChannelTraces, func(ctx context.Context) error { return cl.ExportSpans(ctx, spans) })
		},
	})

	gwOpts := serve.Options{
		Name:            *name,
		MaxModels:       *maxModels,
		RefreshInterval: *refresh,
		MaxBatch:        *batch,
		Tracer:          tracer,
		// Hot swaps land on galleryd's lifecycle audit trail next to the
		// promotions that caused them.
		AuditSink: func(ev api.AuditEvent) {
			ship.Export(obs.ChannelAudit, func(ctx context.Context) error { return cl.ReportAuditEvent(ctx, ev) })
		},
	}
	if *healthInt > 0 {
		// Per-model prediction sketches stream back to galleryd's health
		// monitor through the same client.
		gwOpts.HealthSink = cl
		gwOpts.HealthInterval = *healthInt
	}
	gw := serve.New(cl, gwOpts)
	defer gw.Close()

	for _, id := range strings.Split(*preload, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if _, err := gw.Predict(id, warmupContext()); err != nil {
			log.Printf("galleryserve: preload %s: %v", id, err)
		}
	}

	// Lock-contention profiles are opt-in (sampling costs a little on every
	// contended op); the profiler's mutex/block summaries stay empty
	// without them.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	// Continuous profiling: window summaries ship to galleryd's fleet store
	// so GET /v1/debug/profile there covers both tiers; the local ring
	// serves the same path here and rides incident bundle pulls.
	var detector *profile.Detector
	if *profBaseline != "" {
		base, err := profile.LoadBaseline(*profBaseline)
		if err != nil {
			log.Fatalf("galleryserve: load profile baseline: %v", err)
		}
		detector = profile.NewDetector(profile.DetectorConfig{Baseline: base, Factor: *profFactor})
	}
	profiler := profile.New(profile.Config{
		Process:  "galleryserve",
		Window:   *profWindow,
		Interval: *profEvery,
		Hz:       *profHz,
		Detector: detector,
		Exporter: func(process string, summaries []profile.Summary) {
			ship.Export(obs.ChannelProfiles, func(ctx context.Context) error { return cl.ExportProfiles(ctx, process, summaries) })
		},
	})
	if *profEvery > 0 {
		profiler.Start()
		defer profiler.Stop()
	}

	// Structured logs land in a bounded ring served at GET /v1/debug/logs
	// (trace-correlated); -access-log tees them to stderr as JSON lines.
	ring := obslog.NewRing(*logBuffer)
	var tee *slog.Logger
	if *accessLog {
		tee = jsonLogger()
	}
	logger := slog.New(obslog.NewHandler(ring, obslog.ParseLevel(*logLevel), teeHandler(tee)))
	opts := []serve.HandlerOption{
		serve.WithTracer(tracer),
		serve.WithLogRing(ring),
		serve.WithAccessLog(logger),
		serve.WithProfiler(profiler),
	}
	if *pprofOn {
		opts = append(opts, serve.WithPprof())
	}
	if *authOn {
		// The gateway holds no metadata store, so its control plane lives
		// in memory, rebuilt from the token file on every boot — the same
		// enforcement pipeline galleryd runs, fed by configuration instead
		// of the WAL.
		if *tokenFile == "" {
			log.Fatalf("galleryserve: -auth requires -token-file (a gateway has no durable store to mint from)")
		}
		tm, err := tenant.Open(relstore.NewMemory(), tenant.Options{})
		if err != nil {
			log.Fatalf("galleryserve: open tenant control plane: %v", err)
		}
		seed, err := tenant.LoadSeed(*tokenFile)
		if err != nil {
			log.Fatalf("galleryserve: %v", err)
		}
		if err := tm.ApplySeed(context.Background(), seed); err != nil {
			log.Fatalf("galleryserve: apply token file: %v", err)
		}
		opts = append(opts, serve.WithAuthorizer(tm))
	} else if *tokenFile != "" {
		log.Fatalf("galleryserve: -token-file requires -auth")
	}
	h := serve.NewHandler(gw, opts...)

	httpSrv := &http.Server{
		Addr: *addr, Handler: h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("galleryserve: serving on %s (gallery=%s refresh=%v batch=%d)\n",
		*addr, *gallery, *refresh, *batch)

	waitForShutdown(httpSrv, errCh)
	// After the HTTP drain, so the traces the last requests kept still leave.
	ship.Close()
}

// warmupContext is a throwaway query used only to force a preload; the
// answer is discarded.
func warmupContext() forecast.Context {
	return forecast.Context{History: []float64{1, 1, 1, 1}}
}

func jsonLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(os.Stderr, nil))
}

// teeHandler unwraps an optional logger into the downstream handler slot
// of the ring pipeline (nil when -access-log is off).
func teeHandler(l *slog.Logger) slog.Handler {
	if l == nil {
		return nil
	}
	return l.Handler()
}

func waitForShutdown(httpSrv *http.Server, errCh chan error) {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("galleryserve: %v", err)
		}
	case sig := <-sigCh:
		log.Printf("galleryserve: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("galleryserve: shutdown: %v", err)
		}
		cancel()
	}
}
