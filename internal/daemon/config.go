// Package daemon assembles Gallery's two processes: galleryd, the
// registry service over the metadata store, and galleryserve, the
// prediction gateway in front of it. Each has one config struct, one
// field per command-line flag, and one constructor that builds every
// component in order over a metrics registry of its own. cmd/galleryd and
// cmd/galleryserve only parse flags into the config, construct, print and
// serve; tests boot the same assembly in-process.
package daemon

import (
	"flag"
	"time"
)

// Tuning values with one setting in use are constants, not flags; where a
// component's own default is that value, the daemons pass nothing.
const (
	ruleWorkers    = 4 // galleryd's rule-engine worker goroutines
	gatewayRetries = 3 // galleryserve's retry budget per request to galleryd
)

// Common holds the flags both daemons declare, with the same meaning in
// each. Every config field is one flag, in the order Flags registers them.
type Common struct {
	Addr                 string
	AccessLog            bool
	TraceSample          string
	Pprof                bool
	LogLevel             string
	MutexProfileFraction int
	BlockProfileRate     int
	Auth                 bool
	TokenFile            string
}

func (c *Common) flags(fs *flag.FlagSet, addr string) {
	fs.StringVar(&c.Addr, "addr", addr, "listen address")
	fs.BoolVar(&c.AccessLog, "access-log", false, "write a JSON access-log line per request to stderr")
	fs.StringVar(&c.TraceSample, "trace-sample", "errslow:250ms", "trace sampler: never | always | errslow:<dur> | <probability 0..1>")
	fs.BoolVar(&c.Pprof, "pprof", false, "expose net/http/pprof under /v1/debug/pprof/ (profiles can leak memory contents; opt-in)")
	fs.StringVar(&c.LogLevel, "log-level", "info", "min level of the process log (the /v1/debug/logs ring and stderr): debug|info|warn|error")
	fs.IntVar(&c.MutexProfileFraction, "mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction: sample 1/n mutex contention events (0 disables)")
	fs.IntVar(&c.BlockProfileRate, "block-profile-rate", 0, "runtime.SetBlockProfileRate: sample blocking events >= n ns (0 disables)")
	fs.BoolVar(&c.Auth, "auth", false, "enforce the multi-tenant control plane: bearer tokens, roles, rate limits (galleryd also charges quotas; galleryserve needs -token-file)")
	fs.StringVar(&c.TokenFile, "token-file", "", "JSON seed of namespaces and pre-shared tokens applied at boot (see internal/tenant.Seed)")
}

// GallerydConfig is galleryd's command line.
type GallerydConfig struct {
	Common
	Data                 string
	Mem                  bool
	Fsync                bool
	CompactMB            int64
	DumpMetrics          bool
	HealthInterval       time.Duration
	HealthMetric         string
	SLOInterval          time.Duration
	IncidentGateway      string
	IncidentGatewayToken string
}

// Flags registers galleryd's flags, with their defaults, on fs.
func (c *GallerydConfig) Flags(fs *flag.FlagSet) {
	c.Common.flags(fs, ":8440")
	fs.StringVar(&c.Data, "data", "gallery-data", "data directory for metadata WAL and blob replicas")
	fs.BoolVar(&c.Mem, "mem", false, "run fully in memory (no durability)")
	fs.BoolVar(&c.Fsync, "fsync", false, "fsync the metadata WAL before every acknowledgement: a 2xx on a mutating request means its records are on disk")
	fs.Int64Var(&c.CompactMB, "compact-mb", 256, "compact the metadata WAL at startup when larger than this many MiB (0 disables)")
	fs.BoolVar(&c.DumpMetrics, "dump-metrics", true, "dump the metric registry snapshot to stderr on shutdown")
	fs.DurationVar(&c.HealthInterval, "health-interval", 30*time.Second, "model-health evaluation period (negative disables the monitor loop)")
	fs.StringVar(&c.HealthMetric, "health-metric", "mape", "production error metric for the monitor's drift/skew checks")
	fs.DurationVar(&c.SLOInterval, "slo-interval", 15*time.Second, "SLO burn-rate evaluation period (negative disables the evaluator)")
	fs.StringVar(&c.IncidentGateway, "incident-gateway", "", "serving gateway base URL pulled into incident bundles via GET /v1/debug/bundle (empty: local snapshot only)")
	fs.StringVar(&c.IncidentGatewayToken, "incident-gateway-token", "", "bearer token for the incident gateway pull when the gateway runs -auth")
}

// GalleryserveConfig is galleryserve's command line.
type GalleryserveConfig struct {
	Common
	Gallery     string
	Refresh     time.Duration
	MaxModels   int
	Preload     string
	Name        string
	HealthFlush time.Duration
	Token       string
}

// Flags registers galleryserve's flags, with their defaults, on fs.
func (c *GalleryserveConfig) Flags(fs *flag.FlagSet) {
	c.Common.flags(fs, ":8441")
	fs.StringVar(&c.Gallery, "gallery", "http://localhost:8440", "galleryd base URL")
	fs.DurationVar(&c.Refresh, "refresh", 5*time.Second, "production-pointer poll interval")
	fs.IntVar(&c.MaxModels, "max-models", 64, "LRU bound on concurrently loaded models")
	fs.StringVar(&c.Preload, "preload", "", "comma-separated model IDs to load at startup")
	fs.StringVar(&c.Name, "name", "gateway", "gateway name stamped on flushed health observations")
	fs.DurationVar(&c.HealthFlush, "health-flush", 15*time.Second, "health observation flush period (negative disables health reporting)")
	fs.StringVar(&c.Token, "token", "", "bearer token this gateway presents to galleryd (when galleryd runs -auth)")
}
