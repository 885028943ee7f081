// Command galleryd runs the Gallery model-management service: a stateless
// JSON/HTTP server over a durable metadata store (write-ahead logged) and
// a replicated blob store, with the orchestration rule engine attached.
//
// Usage:
//
//	galleryd -addr :8440 -data /var/lib/gallery
//	galleryd -addr :8440 -mem            # volatile, for demos
//	galleryd -addr :8440 -mem -access-log  # plus a JSON access line per request on stderr
//	galleryd -addr :8440 -auth           # multi-tenant: bearer tokens, roles, quotas
//	galleryd -addr :8440 -auth -token-file tokens.json  # with pre-shared credentials
//
// Process events (WAL replay, start-up, shutdown) are JSON lines on
// stderr and entries in the log ring at GET /v1/debug/logs. With -auth and
// no existing tokens, a bootstrap operator token for the "default"
// namespace is minted and its secret printed once on stdout at startup.
//
// An SLO evaluator ticks every -slo-interval, judging declared burn-rate
// objectives (POST /v1/slo, `galleryctl slo`) against the per-tenant RED
// metrics; metrics are scrapable at GET /v1/debug/metrics/prom.
//
// On SIGINT/SIGTERM the server drains, dumps the full metric registry
// snapshot (the same JSON served at /v1/debug/metrics) to stderr, and
// exits cleanly. The assembly itself lives in internal/daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"gallery/internal/daemon"
)

func main() {
	var cfg daemon.GallerydConfig
	cfg.Flags(flag.CommandLine)
	flag.Parse()

	d, err := daemon.NewGalleryd(cfg)
	if err != nil {
		// No process logger exists yet; this one writes the same JSON lines.
		slog.New(slog.NewJSONHandler(os.Stderr, nil)).Error("start failed", "service", "galleryd", "err", err)
		os.Exit(1)
	}
	// The secret goes to stdout only: the process log is copied into
	// incident bundles, which are persisted and served.
	if id, secret := d.Bootstrap(); secret != "" {
		fmt.Printf("galleryd: minted bootstrap operator token %s — save this secret, it is shown once:\n%s\n", id, secret)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err = daemon.Serve(ctx, d, cfg.Addr)
	stop()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		d.Logger().Error("exiting", "err", err)
		os.Exit(1)
	}
}
