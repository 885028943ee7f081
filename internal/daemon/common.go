package daemon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
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

// Daemon is what Serve runs: a Galleryd or a Galleryserve.
type Daemon interface {
	// Handler is the daemon's HTTP API.
	Handler() http.Handler
	// Logger is the process's logger.
	Logger() *slog.Logger
	// Ready is the ready record's attributes after the bound address.
	Ready() []any
}

// Serve binds addr, logs d's ready record with the address it bound, and
// serves d's API until ctx ends; it then drains in-flight requests for up
// to ten seconds and returns nil. A bind error is returned before anything
// is logged, so a ready record means the daemon is listening.
func Serve(ctx context.Context, d Daemon, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler: d.Handler(),
		// No read or write timeout: a 256 MiB upload is legitimate.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	lg := d.Logger()
	lg.Info("ready", append([]any{"addr", ln.Addr().String()}, d.Ready()...)...)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		lg.Info("shutting down")
		// ctx is done; the drain gets its own deadline.
		drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(drain); err != nil {
			lg.Error("shutdown", "err", err)
		}
		<-errCh // http.ErrServerClosed, once Serve has returned
		return nil
	}
}
