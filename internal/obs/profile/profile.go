// Package profile is Gallery's always-on continuous profiler. Where the
// flag-gated pprof endpoints answer "what is hot right now, if someone is
// looking", this package answers "what was hot over the last hour" with
// bounded memory and negligible steady-state cost: a background loop
// captures a short windowed CPU profile every interval (10s of sampling
// per minute by default) plus point-in-time heap/goroutine/mutex/block
// snapshots, folds each profile into a compact top-N per-function summary
// (parsed straight from the runtime's pprof protobuf — no dependencies),
// and retains a ring of summaries per kind.
//
// The summaries are fleet-aware: a gateway ships its ring to galleryd
// (through the process's one telemetry shipper, obs.Shipper, beside its
// traces) where a Fleet store serves the merged per-process view at
// GET /v1/debug/profile. A Detector compares
// each fresh CPU window against a checked-in per-process baseline
// (PROFILE_<process>.json) and raises profile.regression events into the
// rules engine when a function's self-share blows past its baseline — so
// a hot-path regression pages machinery, not a human rereading BENCH
// files. The incident Recorder embeds the ring in bundles, giving every
// capture pre-trigger history.
package profile

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"gallery/internal/obs"
)

// Profile kinds.
const (
	KindCPU       = "cpu"
	KindHeap      = "heap"
	KindGoroutine = "goroutine"
	KindMutex     = "mutex"
	KindBlock     = "block"
)

// Defaults; Config fields of 0 take these.
const (
	DefaultWindow   = 10 * time.Second
	DefaultInterval = 60 * time.Second
	DefaultHz       = 100
	DefaultTopN     = 20
	DefaultKeep     = 32
)

// defaultKinds are the snapshot profiles captured each cycle alongside
// the CPU window.
var defaultKinds = []string{KindHeap, KindGoroutine, KindMutex, KindBlock}

// FuncStat is one function's aggregate within a summary. Self is the
// value sampled with the function as the leaf frame; Cum counts samples
// the function appears anywhere in. Shares are fractions of the
// summary's Total.
type FuncStat struct {
	Name      string  `json:"name"`
	Self      int64   `json:"self"`
	Cum       int64   `json:"cum"`
	SelfShare float64 `json:"self_share"`
	CumShare  float64 `json:"cum_share"`
}

// Summary is one profile window (or point-in-time snapshot) folded to
// its top-N functions. Unit names what the values count: "nanoseconds"
// for cpu/mutex/block, "bytes" for heap, "count" for goroutines.
type Summary struct {
	Kind       string     `json:"kind"`
	Start      time.Time  `json:"start"`
	End        time.Time  `json:"end"`
	Unit       string     `json:"unit,omitempty"`
	Total      int64      `json:"total"`
	Samples    int64      `json:"samples"`
	DurationNS int64      `json:"duration_ns,omitempty"`
	Top        []FuncStat `json:"top"`
}

// Config tunes a Profiler.
type Config struct {
	// Process names this process in exports and fleet views
	// ("galleryd" | "galleryserve").
	Process string
	// Window is the CPU sampling window per cycle (default 10s).
	Window time.Duration
	// Interval is the cycle period (default 60s). Window is clamped to
	// Interval when an operator configures them inverted.
	Interval time.Duration
	// Hz is the CPU sample rate (default 100). Non-default rates are set
	// before StartCPUProfile, which pins 100 itself; the pre-set rate
	// wins, at the cost of one runtime warning line on stderr per window.
	Hz int
	// TopN bounds functions retained per summary (default 20).
	TopN int
	// Keep bounds summaries retained per kind (default 32 — about half an
	// hour of CPU windows at the default cadence).
	Keep int
	// Kinds are the snapshot profiles captured each cycle (default heap,
	// goroutine, mutex, block).
	Kinds []string
	// Obs receives the profile_* counters; nil uses obs.Default.
	Obs *obs.Registry
	// Detector, when non-nil, checks each fresh CPU summary for
	// regressions against its baseline.
	Detector *Detector
	// Exporter, when non-nil, receives each cycle's summaries on their way
	// to the fleet view — Fleet.Ingest in-process on galleryd, the
	// telemetry shipper's queue on a gateway. It runs on the capture loop,
	// so it must not block.
	Exporter func(process string, summaries []Summary)
}

// Profiler runs the capture loop. All methods are safe for concurrent
// use. Only one CPU profile can run per process — when something else
// (an operator's /v1/debug/pprof/profile pull) holds it, the window is
// skipped and counted, never fought over.
type Profiler struct {
	cfg  Config
	ring *Ring

	cWindows *obs.Counter // profile_windows_total
	cErrors  *obs.Counter // profile_capture_errors_total

	startOnce sync.Once
	stopOnce  sync.Once
	quit      chan struct{}
	done      chan struct{}
}

// New builds a Profiler; Start begins the capture loop.
func New(cfg Config) *Profiler {
	if cfg.Process == "" {
		cfg.Process = "galleryd"
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Window > cfg.Interval {
		cfg.Window = cfg.Interval
	}
	if cfg.Hz <= 0 {
		cfg.Hz = DefaultHz
	}
	if cfg.TopN <= 0 {
		cfg.TopN = DefaultTopN
	}
	if cfg.Keep <= 0 {
		cfg.Keep = DefaultKeep
	}
	if cfg.Kinds == nil {
		cfg.Kinds = defaultKinds
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.Default
	}
	return &Profiler{
		cfg:      cfg,
		ring:     NewRing(cfg.Keep),
		cWindows: cfg.Obs.Counter("profile_windows_total"),
		cErrors:  cfg.Obs.Counter("profile_capture_errors_total"),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Process reports the configured process name.
func (p *Profiler) Process() string { return p.cfg.Process }

// Ring exposes the retained summaries — the debug endpoint's and the
// incident recorder's view of this profiler.
func (p *Profiler) Ring() *Ring { return p.ring }

// Start launches the background capture loop. The first cycle begins
// immediately so a fresh daemon has data within one window.
func (p *Profiler) Start() {
	p.startOnce.Do(func() { go p.loop() })
}

// Stop interrupts an in-flight CPU window and halts the loop. Safe to
// call twice; also safe on a never-started profiler.
func (p *Profiler) Stop() {
	p.stopOnce.Do(func() { close(p.quit) })
	p.startOnce.Do(func() { close(p.done) }) // never started: nothing to wait for
	<-p.done
}

func (p *Profiler) loop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	p.CaptureCycle()
	for {
		select {
		case <-t.C:
			p.CaptureCycle()
		case <-p.quit:
			return
		}
	}
}

// CaptureCycle runs one full cycle synchronously — a CPU window plus the
// snapshot kinds — adding every summary to the ring, consulting the
// detector, and exporting. Exposed so tests and experiments drive the
// profiler deterministically without the ticker.
func (p *Profiler) CaptureCycle() []Summary {
	var out []Summary
	if s, err := p.captureCPU(); err == nil {
		out = append(out, s)
	} else {
		p.cErrors.Inc()
	}
	out = append(out, p.CaptureSnapshots(time.Now())...)
	for _, s := range out {
		p.ring.Add(s)
	}
	if p.cfg.Detector != nil {
		for _, s := range out {
			if s.Kind == KindCPU {
				p.cfg.Detector.Check(s)
			}
		}
	}
	if p.cfg.Exporter != nil && len(out) > 0 {
		p.cfg.Exporter(p.cfg.Process, out)
	}
	p.cWindows.Inc()
	return out
}

// captureCPU samples CPU for one window and folds the profile.
func (p *Profiler) captureCPU() (Summary, error) {
	var buf bytes.Buffer
	if p.cfg.Hz != DefaultHz {
		runtime.SetCPUProfileRate(p.cfg.Hz)
	}
	start := time.Now()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return Summary{}, err
	}
	select {
	case <-time.After(p.cfg.Window):
	case <-p.quit:
	}
	pprof.StopCPUProfile()
	end := time.Now()
	s, err := Summarize(buf.Bytes(), KindCPU, p.cfg.TopN)
	if err != nil {
		return Summary{}, err
	}
	s.Start, s.End = start, end
	return s, nil
}

// lookupNames maps summary kinds onto runtime/pprof profile names.
var lookupNames = map[string]string{
	KindHeap:      "heap",
	KindGoroutine: "goroutine",
	KindMutex:     "mutex",
	KindBlock:     "block",
}

// CaptureSnapshots folds the configured point-in-time profiles. Mutex
// and block summaries stay empty until the daemon arms
// runtime.SetMutexProfileFraction / SetBlockProfileRate.
func (p *Profiler) CaptureSnapshots(now time.Time) []Summary {
	var out []Summary
	for _, kind := range p.cfg.Kinds {
		name, ok := lookupNames[kind]
		if !ok {
			continue
		}
		lp := pprof.Lookup(name)
		if lp == nil {
			continue
		}
		var buf bytes.Buffer
		if err := lp.WriteTo(&buf, 0); err != nil {
			p.cErrors.Inc()
			continue
		}
		s, err := Summarize(buf.Bytes(), kind, p.cfg.TopN)
		if err != nil {
			p.cErrors.Inc()
			continue
		}
		s.Start, s.End = now, now
		out = append(out, s)
	}
	return out
}
