package profile

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gallery/internal/obs"
)

// BaselineSchema is bumped when the baseline file format changes
// incompatibly.
const BaselineSchema = 1

// Detector defaults.
const (
	// DefaultFactor: a function regresses when its self-share exceeds
	// baseline * factor.
	DefaultFactor = 2.0
	// DefaultMinShare: functions below this absolute self-share never
	// flag, whatever their baseline — a 0.1% function tripling is noise.
	DefaultMinShare = 0.05
	// DefaultNewShare is the share assumed for functions absent from the
	// baseline, so a brand-new hog (code the baseline never saw) still
	// flags once it clears MinShare and NewShare*Factor.
	DefaultNewShare = 0.01
)

// Baseline is the checked-in per-process profile expectation
// (PROFILE_<process>.json, the benchfmt idiom): the self-share each
// known-hot function is allowed before the detector calls a regression.
// Shares are machine-portable the way allocation counts are — a
// function's fraction of total CPU is a property of the code path, not
// the clock — which is what makes a committed baseline meaningful.
type Baseline struct {
	Schema  int                `json:"schema"`
	Process string             `json:"process"`
	Kind    string             `json:"kind"`
	Shares  map[string]float64 `json:"shares"`
}

// BaselineFileName returns the canonical baseline file name for a
// process.
func BaselineFileName(process string) string { return "PROFILE_" + process + ".json" }

// BaselineOf derives a baseline from a (typically merged) summary.
func BaselineOf(process string, s Summary) Baseline {
	b := Baseline{
		Schema:  BaselineSchema,
		Process: process,
		Kind:    s.Kind,
		Shares:  make(map[string]float64, len(s.Top)),
	}
	for _, fn := range s.Top {
		b.Shares[fn.Name] = fn.SelfShare
	}
	return b
}

// WriteBaseline persists b as dir/PROFILE_<process>.json with stable
// formatting, so regenerated baselines diff cleanly.
func WriteBaseline(dir string, b Baseline) error {
	return WriteBaselineFile(filepath.Join(dir, BaselineFileName(b.Process)), b)
}

// WriteBaselineFile persists b at an explicit path.
func WriteBaselineFile(path string, b Baseline) error {
	b.Schema = BaselineSchema
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("profile: marshal baseline %s: %w", b.Process, err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("profile: write %s: %w", path, err)
	}
	return nil
}

// LoadBaseline reads one baseline file.
func LoadBaseline(path string) (Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return Baseline{}, fmt.Errorf("profile: parse %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return Baseline{}, fmt.Errorf("profile: %s has schema %d, want %d (regenerate with `galleryctl profile baseline`)",
			path, b.Schema, BaselineSchema)
	}
	return b, nil
}

// Regression is one function whose live self-share blew past its
// baseline allowance.
type Regression struct {
	Function string  `json:"function"`
	Share    float64 `json:"share"`    // live self-share
	Baseline float64 `json:"baseline"` // allowed share (NewShare when absent)
	Factor   float64 `json:"factor"`   // share / baseline
}

// CompareBaseline checks a summary's top functions against a baseline.
// A function regresses when its self-share clears minShare AND exceeds
// factor times its baseline share (newShare for functions the baseline
// has never seen). Results are ordered worst factor first.
func CompareBaseline(b Baseline, s Summary, factor, minShare, newShare float64) []Regression {
	if factor <= 0 {
		factor = DefaultFactor
	}
	if minShare <= 0 {
		minShare = DefaultMinShare
	}
	if newShare <= 0 {
		newShare = DefaultNewShare
	}
	var regs []Regression
	for _, fn := range s.Top {
		if fn.SelfShare < minShare {
			continue
		}
		base, ok := b.Shares[fn.Name]
		if !ok || base <= 0 {
			base = newShare
		}
		if fn.SelfShare <= base*factor {
			continue
		}
		regs = append(regs, Regression{
			Function: fn.Name,
			Share:    fn.SelfShare,
			Baseline: base,
			Factor:   fn.SelfShare / base,
		})
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Factor > regs[j].Factor })
	return regs
}

// DetectorConfig tunes a Detector.
type DetectorConfig struct {
	// Baseline is the per-process allowance being enforced.
	Baseline Baseline
	// Factor, MinShare, NewShare tune CompareBaseline (0 = defaults).
	Factor   float64
	MinShare float64
	NewShare float64
	// Obs hosts the profile_regression gauge and detector counters; nil
	// uses obs.Default.
	Obs *obs.Registry
	// Sink, when non-nil, receives one profile "regression" event per
	// offending function per checked window. It is process-level — there
	// is no model behind a hot function — so it carries no scope.
	Sink obs.EventFunc
}

// Detector judges fresh CPU summaries against a baseline, maintaining
// the profile_regression gauge (count of currently regressed functions)
// and emitting events for the rules engine.
type Detector struct {
	cfg DetectorConfig

	gRegressed *obs.Gauge   // profile_regression
	cChecks    *obs.Counter // profile_detector_checks_total
	cFlagged   *obs.Counter // profile_regressions_total

	mu   sync.Mutex
	last []Regression
}

// NewDetector builds a Detector over a loaded baseline.
func NewDetector(cfg DetectorConfig) *Detector {
	if cfg.Obs == nil {
		cfg.Obs = obs.Default
	}
	if cfg.Baseline.Kind == "" {
		cfg.Baseline.Kind = KindCPU
	}
	return &Detector{
		cfg:        cfg,
		gRegressed: cfg.Obs.Gauge("profile_regression"),
		cChecks:    cfg.Obs.Counter("profile_detector_checks_total"),
		cFlagged:   cfg.Obs.Counter("profile_regressions_total"),
	}
}

// Check judges one summary. Summaries of a kind other than the
// baseline's are ignored. The returned regressions (possibly none) also
// become Last's value and drive the gauge and sink.
func (d *Detector) Check(s Summary) []Regression {
	if s.Kind != d.cfg.Baseline.Kind {
		return nil
	}
	regs := CompareBaseline(d.cfg.Baseline, s, d.cfg.Factor, d.cfg.MinShare, d.cfg.NewShare)
	d.cChecks.Inc()
	d.gRegressed.Set(float64(len(regs)))
	d.mu.Lock()
	d.last = regs
	d.mu.Unlock()
	if len(regs) > 0 {
		d.cFlagged.Add(int64(len(regs)))
		if d.cfg.Sink != nil {
			for _, r := range regs {
				d.cfg.Sink(context.Background(), obs.Event{Kind: "profile", Name: "regression", Fields: map[string]any{
					"process":  d.cfg.Baseline.Process,
					"function": r.Function,
					"share":    r.Share,
					"baseline": r.Baseline,
					"factor":   r.Factor,
				}})
			}
		}
	}
	return regs
}

// Last returns the most recent check's regressions.
func (d *Detector) Last() []Regression {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Regression, len(d.last))
	copy(out, d.last)
	return out
}
