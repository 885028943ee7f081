// Package experiments implements every experiment in DESIGN.md's
// per-experiment index (E1–E15): one function per paper table, figure, or
// quantitative claim, each returning a structured, printable result. The
// benchmark harness (cmd/benchharness) prints them as paper-style rows;
// bench_test.go measures them; the package's own tests assert that each
// result reproduces the paper's qualitative shape.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/uuid"
)

// epoch is the deterministic start time of every experiment.
var epoch = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

// Env bundles a deterministic Gallery deployment for one experiment run.
type Env struct {
	Reg    *core.Registry
	Repo   *rules.Repo
	Engine *rules.Engine
	Clock  *clock.Mock
}

// NewEnv builds an in-memory Gallery with a seeded UUID generator and a
// mock clock, so every experiment is exactly reproducible.
func NewEnv(seed int64) (*Env, error) {
	clk := clock.NewMock(epoch)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(seed),
	})
	if err != nil {
		return nil, err
	}
	repo := rules.NewRepo(clk)
	return &Env{
		Reg:    reg,
		Repo:   repo,
		Engine: rules.NewEngine(reg, repo, clk),
		Clock:  clk,
	}, nil
}

// mustEnv is NewEnv for experiment code where failure is programmer error.
func mustEnv(seed int64) *Env {
	e, err := NewEnv(seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: env: %v", err))
	}
	return e
}

// allocsPerOp runs op n times after a 50-call warmup (so pools reach
// steady state) and reports the exact heap allocations per call, from the
// runtime.MemStats.Mallocs delta rather than a sample. Arms compared
// against each other build identical ops, so harness cost cancels in
// their difference.
func allocsPerOp(n int, op func() error) (float64, error) {
	for i := 0; i < 50; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// wholeAllocs rounds an allocs/op figure to whole allocations, clamping
// below at 0. Sub-alloc fractions are pool and warmup jitter; a healthy
// value then reads exactly 0, which benchfmt gates with Tol as an
// absolute allowance, so any run measuring one more alloc/op fails.
func wholeAllocs(v float64) float64 { return math.Max(0, math.Round(v)) }
