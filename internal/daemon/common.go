package daemon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/tenant"
)

// tracer parses the -trace-sample spec and builds the process tracer.
func (c *Common) tracer(process string, export func([]trace.SpanData)) (*trace.Tracer, error) {
	sampler, err := trace.ParseSampler(c.TraceSample)
	if err != nil {
		return nil, err
	}
	return trace.New(trace.Options{Service: process, Sampler: sampler, Exporter: export}), nil
}

// sampling sets the opt-in lock-contention sampling rates that -pprof's
// /mutex and /block profiles read (each costs a little on every contended
// op).
func (c *Common) sampling() {
	if c.MutexProfileFraction > 0 {
		runtime.SetMutexProfileFraction(c.MutexProfileFraction)
	}
	if c.BlockProfileRate > 0 {
		runtime.SetBlockProfileRate(c.BlockProfileRate)
	}
}

// logging builds the process's one logger: its records from -log-level
// up enter the ring served at GET /v1/debug/logs, which incident bundles
// copy, and go to stderr as JSON lines. Under -access-log it also builds
// the access logger, one JSON line per request to stderr only, gated by
// the same level; without the flag that is nil and no request builds a
// line.
func (c *Common) logging(process string) (ring *obslog.Ring, lg, access *slog.Logger) {
	ring = obslog.NewRing(obslog.DefaultCapacity)
	level := obslog.ParseLevel(c.LogLevel)
	stderr := slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	lg = slog.New(obslog.NewHandler(ring, level, stderr)).With("service", process)
	if c.AccessLog {
		access = slog.New(stderr)
	}
	return ring, lg, access
}

// check refuses a token file without -auth: its tokens would be loaded
// into nothing.
func (c *Common) check() error {
	if c.TokenFile != "" && !c.Auth {
		return errors.New("-token-file requires -auth")
	}
	return nil
}

// tenants opens the multi-tenant control plane over store and applies the
// -token-file seed, if there is one.
func (c *Common) tenants(store *relstore.Store, opts tenant.Options) (*tenant.Manager, error) {
	tm, err := tenant.Open(store, opts)
	if err != nil {
		return nil, fmt.Errorf("open tenant control plane: %w", err)
	}
	if c.TokenFile == "" {
		return tm, nil
	}
	seed, err := tenant.LoadSeed(c.TokenFile)
	if err != nil {
		return nil, err
	}
	if err := tm.ApplySeed(context.Background(), seed); err != nil {
		return nil, fmt.Errorf("apply token file: %w", err)
	}
	return tm, nil
}

// closers runs a daemon's shutdown steps, last registered first, and
// reports the first error.
type closers []func() error

func (cs *closers) add(f func() error) { *cs = append(*cs, f) }

func (cs *closers) close() (first error) {
	for i := len(*cs) - 1; i >= 0; i-- {
		if err := (*cs)[i](); first == nil {
			first = err
		}
	}
	*cs = nil
	return first
}

// noErr adapts a shutdown step that cannot fail.
func noErr(f func()) func() error {
	return func() error { f(); return nil }
}

// Serve serves h on addr until SIGINT or SIGTERM, then drains in-flight
// requests for up to ten seconds and returns nil. lg is the process's
// logger (Galleryd.Logger, Galleryserve.Logger).
func Serve(lg *slog.Logger, addr string, h http.Handler) error {
	srv := &http.Server{
		Addr: addr, Handler: h,
		// No read or write timeout: a 256 MiB upload is legitimate.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		lg.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			lg.Error("shutdown", "err", err)
		}
		return nil
	}
}
