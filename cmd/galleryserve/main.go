// Command galleryserve runs the Gallery prediction serving gateway: a
// stateless HTTP tier that pulls promoted model instances out of a
// galleryd and answers forecast queries with them, hot-swapping on
// promotion (the paper's §2 realtime prediction service, closed-loop with
// the §4.2 rule engine).
//
// Usage:
//
//	galleryserve -addr :8441 -gallery http://localhost:8440
//	galleryserve -addr :8441 -auth -token-file tokens.json -token gal_...  # multi-tenant
//
// Predictions:
//
//	curl -s localhost:8441/v1/predict/<model-id> \
//	    -d '{"history":[10,12,11,13,12,14]}'
//
// Per-tenant and per-model RED metrics are recorded on every request and
// exposed for scraping in Prometheus text format at
// GET /v1/debug/metrics/prom (JSON snapshot at /v1/debug/metrics). The
// assembly itself lives in internal/daemon.
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"gallery/internal/daemon"
)

func main() {
	var cfg daemon.GalleryserveConfig
	cfg.Flags(flag.CommandLine)
	flag.Parse()

	g, err := daemon.NewGalleryserve(cfg)
	if err != nil {
		// No process logger exists yet; this one writes the same JSON lines.
		slog.New(slog.NewJSONHandler(os.Stderr, nil)).Error("start failed", "service", "galleryserve", "err", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err = daemon.Serve(ctx, g, cfg.Addr)
	stop()
	// After the HTTP drain, so the traces the last requests kept still leave.
	if cerr := g.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		g.Logger().Error("exiting", "err", err)
		os.Exit(1)
	}
}
