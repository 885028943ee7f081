package core

import (
	"context"
	"errors"
	"testing"

	"gallery/internal/uuid"
)

// figure5 builds the exact dependency graph of paper Figure 5:
// X and Y depend on A; A depends on B and C. Majors are seeded so display
// versions match the figures: A=4, X=7, Y=8, B=2, C=3.
type figure5 struct {
	h             *harness
	a, b, c, x, y *Model
}

func buildFigure5(t *testing.T) *figure5 {
	t.Helper()
	h := newHarness(t)
	reg := func(base string, major int, ups ...uuid.UUID) *Model {
		m, err := h.g.RegisterModel(ModelSpec{
			BaseVersionID: base,
			Project:       "marketplace",
			InitialMajor:  major,
			Upstreams:     ups,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	b := reg("model_B", 2)
	c := reg("model_C", 3)
	a := reg("model_A", 4, b.ID, c.ID)
	x := reg("model_X", 7, a.ID)
	y := reg("model_Y", 8, a.ID)
	return &figure5{h: h, a: a, b: b, c: c, x: x, y: y}
}

func (f *figure5) version(t *testing.T, m *Model) string {
	t.Helper()
	v, err := f.h.g.LatestVersion(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	return v.String()
}

func (f *figure5) prodVersion(t *testing.T, m *Model) string {
	t.Helper()
	v, err := f.h.g.ProductionVersion(context.Background(), m.ID)
	if err != nil {
		t.Fatal(err)
	}
	return v.String()
}

func TestFigure5GraphShape(t *testing.T) {
	f := buildFigure5(t)
	ups, err := f.h.g.Upstreams(f.a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("A upstreams = %v", ups)
	}
	down, err := f.h.g.Downstreams(f.a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != 2 {
		t.Fatalf("A downstreams = %v", down)
	}
	trans, err := f.h.g.TransitiveDownstreams(f.b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(trans) != 3 { // A, X, Y
		t.Fatalf("B transitive downstreams = %v", trans)
	}
	// Initial versions per Figure 5.
	for m, want := range map[*Model]string{f.a: "4.0", f.b: "2.0", f.c: "3.0", f.x: "7.0", f.y: "8.0"} {
		if got := f.version(t, m); got != want {
			t.Fatalf("%s initial version = %s, want %s", m.BaseVersionID, got, want)
		}
	}
}

// TestDependencyFigure6 reproduces paper Figure 6: updating Model B's
// instance from 2.0 to 2.1 triggers version updates for all of B's
// downstream models (A, X, Y) *without* changing their production
// versions. (Experiment E5.)
func TestDependencyFigure6(t *testing.T) {
	f := buildFigure5(t)
	f.h.upload(t, f.b, "sf", []byte("b-retrained"))

	if got := f.version(t, f.b); got != "2.1" {
		t.Fatalf("B version = %s, want 2.1", got)
	}
	// B's own retrain is its new production version.
	if got := f.prodVersion(t, f.b); got != "2.1" {
		t.Fatalf("B production = %s, want 2.1", got)
	}
	// Downstream latest versions bumped...
	for m, want := range map[*Model]string{f.a: "4.1", f.x: "7.1", f.y: "8.1"} {
		if got := f.version(t, m); got != want {
			t.Fatalf("%s latest = %s, want %s", m.BaseVersionID, got, want)
		}
	}
	// ...but their production versions are untouched until the owner opts in.
	for m, want := range map[*Model]string{f.a: "4.0", f.x: "7.0", f.y: "8.0"} {
		if got := f.prodVersion(t, m); got != want {
			t.Fatalf("%s production = %s, want %s (no auto-promotion)", m.BaseVersionID, got, want)
		}
	}
	// C is not downstream of B: untouched entirely.
	if got := f.version(t, f.c); got != "3.0" {
		t.Fatalf("C version = %s, want 3.0", got)
	}
	// The dep_update records carry their trigger.
	hist, err := f.h.g.VersionHistory(f.a.ID)
	if err != nil {
		t.Fatal(err)
	}
	last := hist[len(hist)-1]
	if last.Cause != CauseDepUpdate || last.TriggeredBy != f.b.ID {
		t.Fatalf("A's new version: cause=%s triggeredBy=%s", last.Cause, last.TriggeredBy)
	}
	// The owner of A can choose to upgrade (paper: "can choose to
	// upgrade to the new model version").
	if err := f.h.g.Promote(context.Background(), last.ID); err != nil {
		t.Fatal(err)
	}
	if got := f.prodVersion(t, f.a); got != "4.1" {
		t.Fatalf("A production after promote = %s", got)
	}
}

// TestDependencyFigure7 reproduces paper Figure 7: adding Model D as a new
// dependency of Model A bumps A to 4.2 and its downstreams X and Y to 7.2
// and 8.2. (Experiment E5.)
func TestDependencyFigure7(t *testing.T) {
	f := buildFigure5(t)
	// First the Figure 6 step so versions sit at x.1.
	f.h.upload(t, f.b, "sf", []byte("b-retrained"))

	d, err := f.h.g.RegisterModel(ModelSpec{BaseVersionID: "model_D", InitialMajor: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.h.g.AddDependency(context.Background(), f.a.ID, d.ID); err != nil {
		t.Fatal(err)
	}

	for m, want := range map[*Model]string{f.a: "4.2", f.x: "7.2", f.y: "8.2"} {
		if got := f.version(t, m); got != want {
			t.Fatalf("%s after adding D = %s, want %s", m.BaseVersionID, got, want)
		}
	}
	ups, err := f.h.g.Upstreams(f.a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 3 {
		t.Fatalf("A upstreams after add = %v", ups)
	}
	hist, _ := f.h.g.VersionHistory(f.a.ID)
	if hist[len(hist)-1].Cause != CauseDepAdded {
		t.Fatalf("A's new version cause = %s", hist[len(hist)-1].Cause)
	}
}

func TestRemoveDependency(t *testing.T) {
	f := buildFigure5(t)
	if err := f.h.g.RemoveDependency(context.Background(), f.a.ID, f.c.ID); err != nil {
		t.Fatal(err)
	}
	ups, err := f.h.g.Upstreams(f.a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || ups[0] != f.b.ID {
		t.Fatalf("A upstreams after removal = %v", ups)
	}
	// Removal also versions A and propagates.
	if got := f.version(t, f.a); got != "4.1" {
		t.Fatalf("A after removal = %s", got)
	}
	if got := f.version(t, f.x); got != "7.1" {
		t.Fatalf("X after removal = %s", got)
	}
	// C's update no longer touches A.
	f.h.upload(t, f.c, "sf", []byte("c-new"))
	if got := f.version(t, f.a); got != "4.1" {
		t.Fatalf("A bumped by removed dependency: %s", got)
	}
}

func TestRemoveAbsentDependency(t *testing.T) {
	f := buildFigure5(t)
	if err := f.h.g.RemoveDependency(context.Background(), f.b.ID, f.c.ID); err == nil {
		t.Fatal("removing a non-existent edge succeeded")
	}
}

func TestCycleRejected(t *testing.T) {
	f := buildFigure5(t)
	// B -> X would close the loop X -> A -> B.
	err := f.h.g.AddDependency(context.Background(), f.b.ID, f.x.ID)
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle err = %v", err)
	}
	// Self-dependency.
	if err := f.h.g.AddDependency(context.Background(), f.a.ID, f.a.ID); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("self-edge err = %v", err)
	}
	// Direct two-node cycle.
	if err := f.h.g.AddDependency(context.Background(), f.b.ID, f.a.ID); !errors.Is(err, ErrCycle) {
		t.Fatalf("2-cycle err = %v", err)
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	f := buildFigure5(t)
	if err := f.h.g.AddDependency(context.Background(), f.x.ID, f.b.ID); err != nil {
		t.Fatal(err) // new edge is fine
	}
	if err := f.h.g.AddDependency(context.Background(), f.x.ID, f.b.ID); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

// TestDiamondPropagationCountsOnce: B's update reaches X both directly
// (X->B added here) and through A; X must get exactly one new version.
func TestDiamondPropagationCountsOnce(t *testing.T) {
	f := buildFigure5(t)
	if err := f.h.g.AddDependency(context.Background(), f.x.ID, f.b.ID); err != nil {
		t.Fatal(err)
	}
	before, _ := f.h.g.VersionHistory(f.x.ID)
	f.h.upload(t, f.b, "sf", []byte("b2"))
	after, _ := f.h.g.VersionHistory(f.x.ID)
	if len(after)-len(before) != 1 {
		t.Fatalf("X gained %d versions from one B update, want 1", len(after)-len(before))
	}
}

func TestPromoteUnknownVersion(t *testing.T) {
	f := buildFigure5(t)
	if err := f.h.g.Promote(context.Background(), uuid.New()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPromoteIdempotent(t *testing.T) {
	f := buildFigure5(t)
	v, err := f.h.g.ProductionVersion(context.Background(), f.a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.h.g.Promote(context.Background(), v.ID); err != nil {
		t.Fatal(err)
	}
	// Still exactly one production version.
	if got := f.prodVersion(t, f.a); got != v.String() {
		t.Fatalf("production changed: %s", got)
	}
}
