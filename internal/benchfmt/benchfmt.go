// Package benchfmt defines the machine-readable gate format persisted as
// BENCH_<experiment>.json at the repository root and compared in CI
// against reruns.
//
// Every metric in a file gates: it names a direction (higher or lower is
// better) and its own tolerance band, and a rerun that moves it beyond
// the band in the worse direction fails. Only machine-independent numbers
// belong here (allocation counts, rows scanned, exact result counts,
// detector verdicts), so a band holds on any hardware. Wall-clock numbers
// are measured end to end over real sockets by the bench/ module, not
// here.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SchemaVersion is bumped when the file format changes incompatibly.
const SchemaVersion = 1

// Gating directions for Metric.Better.
const (
	// HigherIsBetter gates on drops (counts that must not fall).
	HigherIsBetter = "higher"
	// LowerIsBetter gates on rises (alloc/scan-style metrics).
	LowerIsBetter = "lower"
)

// Metric is one measured number.
type Metric struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
	// Value is the measurement, deterministic given the experiment's
	// seeds up to its tolerance.
	Value float64 `json:"value"`
	// Better is HigherIsBetter or LowerIsBetter.
	Better string `json:"better"`
	// Tol is the tolerance band as a fraction of the baseline value
	// (0.25 = a 25% move in the worse direction fails), or an absolute
	// allowance when the baseline is 0. It must be positive.
	Tol float64 `json:"tol"`
}

// Result is one experiment's emitted metrics.
type Result struct {
	Schema     int      `json:"schema"`
	Experiment string   `json:"experiment"`
	Metrics    []Metric `json:"metrics"`
}

// FileName returns the canonical baseline file name for an experiment.
func FileName(experiment string) string { return "BENCH_" + experiment + ".json" }

// Write persists r as dir/BENCH_<exp>.json with stable formatting, so
// regenerated baselines diff cleanly.
func Write(dir string, r Result) error {
	r.Schema = SchemaVersion
	path := filepath.Join(dir, FileName(r.Experiment))
	if err := checkGates(path, r); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: marshal %s: %w", r.Experiment, err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("benchfmt: write %s: %w", path, err)
	}
	return nil
}

// Load reads one result file, refusing a metric that cannot gate.
func Load(path string) (Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Result{}, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return Result{}, fmt.Errorf("benchfmt: parse %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return Result{}, fmt.Errorf("benchfmt: %s has schema %d, want %d (regenerate with -bench-dir)",
			path, r.Schema, SchemaVersion)
	}
	if err := checkGates(path, r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// checkGates refuses a metric that cannot gate: one without a direction
// or without a positive tolerance.
func checkGates(path string, r Result) error {
	for _, m := range r.Metrics {
		if m.Better != HigherIsBetter && m.Better != LowerIsBetter {
			return fmt.Errorf("benchfmt: %s: metric %q has better %q, want %q or %q",
				path, m.Name, m.Better, HigherIsBetter, LowerIsBetter)
		}
		if !(m.Tol > 0) {
			return fmt.Errorf("benchfmt: %s: metric %q has tol %v, want > 0", path, m.Name, m.Tol)
		}
	}
	return nil
}

// LoadBaseline reads dir's baseline for an experiment; ok=false when no
// baseline file exists (a new experiment, not an error).
func LoadBaseline(dir, experiment string) (Result, bool, error) {
	r, err := Load(filepath.Join(dir, FileName(experiment)))
	if os.IsNotExist(err) {
		return Result{}, false, nil
	}
	if err != nil {
		return Result{}, false, err
	}
	return r, true, nil
}

// Delta statuses.
const (
	StatusOK        = "ok"        // within tolerance
	StatusRegressed = "regressed" // beyond tolerance in the worse direction
	StatusImproved  = "improved"  // beyond tolerance in the better direction
	StatusNew       = "new"       // metric absent from the baseline
	StatusGone      = "gone"      // baseline metric absent from the rerun; fails like a regression
)

// Delta is one metric's baseline-vs-rerun comparison.
type Delta struct {
	Name   string
	Unit   string
	Base   float64
	Cur    float64
	Change float64 // fractional change vs baseline; +Inf when base is 0
	Status string
}

// Compare evaluates a rerun against its baseline, each metric within its
// own Tol. A baseline metric missing from the rerun is a regression
// (coverage silently lost).
func Compare(base, cur Result) (deltas []Delta, regressed bool) {
	baseByName := make(map[string]Metric, len(base.Metrics))
	for _, m := range base.Metrics {
		baseByName[m.Name] = m
	}
	seen := make(map[string]bool, len(cur.Metrics))
	for _, m := range cur.Metrics {
		seen[m.Name] = true
		d := Delta{Name: m.Name, Unit: m.Unit, Cur: m.Value}
		bm, ok := baseByName[m.Name]
		if !ok {
			d.Status = StatusNew
			deltas = append(deltas, d)
			continue
		}
		d.Base = bm.Value
		d.Change = fractionalChange(bm.Value, m.Value)
		d.Status = gate(m.Better, bm.Value, m.Value, m.Tol)
		if d.Status == StatusRegressed {
			regressed = true
		}
		deltas = append(deltas, d)
	}
	for _, bm := range base.Metrics {
		if seen[bm.Name] {
			continue
		}
		deltas = append(deltas, Delta{Name: bm.Name, Unit: bm.Unit, Base: bm.Value, Status: StatusGone})
		regressed = true
	}
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas, regressed
}

// gate classifies cur against base for a gated metric. When the baseline
// is zero there is no meaningful fraction, so tol acts as an absolute
// allowance instead (a lower-is-better 0 baseline tolerates cur <= tol).
func gate(better string, base, cur float64, tol float64) string {
	if base == 0 {
		worse := cur > tol
		if better == HigherIsBetter {
			worse = cur < -tol
		}
		if worse {
			return StatusRegressed
		}
		return StatusOK
	}
	change := fractionalChange(base, cur)
	switch better {
	case HigherIsBetter:
		if change < -tol {
			return StatusRegressed
		}
		if change > tol {
			return StatusImproved
		}
	case LowerIsBetter:
		if change > tol {
			return StatusRegressed
		}
		if change < -tol {
			return StatusImproved
		}
	}
	return StatusOK
}

func fractionalChange(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, cur)))
	}
	return (cur - base) / math.Abs(base)
}

// FormatDeltas renders one experiment's comparison as aligned job-log
// rows.
func FormatDeltas(experiment string, deltas []Delta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", experiment)
	fmt.Fprintf(&b, "  %-40s %14s %14s %9s  %s\n", "metric", "baseline", "rerun", "change", "status")
	for _, d := range deltas {
		change := "-"
		if d.Status != StatusNew && d.Status != StatusGone {
			if math.IsInf(d.Change, 0) {
				change = "inf"
			} else {
				change = fmt.Sprintf("%+.1f%%", d.Change*100)
			}
		}
		name := d.Name
		if d.Unit != "" {
			name += " (" + d.Unit + ")"
		}
		fmt.Fprintf(&b, "  %-40s %14s %14s %9s  %s\n",
			name, formatValue(d.Base, d.Status == StatusNew), formatValue(d.Cur, d.Status == StatusGone), change, d.Status)
	}
	return b.String()
}

func formatValue(v float64, absent bool) string {
	if absent {
		return "-"
	}
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 0.001:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}
