package incident

import (
	"context"
	"regexp"
	"testing"
	"time"

	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/slo"
)

// burning is an slo.Source whose every request since the last read failed.
type burning struct{ bad int64 }

func (b *burning) Counts(slo.Objective) (int64, int64, bool) {
	b.bad += 100
	return 0, b.bad, true
}

// TestRecorderEventFromSLOBurn subscribes the recorder to a real
// slo.Service: the reason persisted with the bundle is rebuilt from the
// burn event's untyped Fields, so a publisher that renames one shows up
// here as a %!f(<nil>) in the text.
func TestRecorderEventFromSLOBurn(t *testing.T) {
	r, clk, _ := harness(t, Config{})
	const tick = 5 * time.Minute // the fast-short window, one tick
	svc, err := slo.Open(relstore.NewMemory(), &burning{}, slo.Config{
		Tick: tick, Clock: clk, Obs: obs.NewRegistry(), Events: r.Event,
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := svc.Create(context.Background(), slo.Objective{Namespace: "maps", Kind: slo.KindAvailability, Target: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clk.Advance(tick)
		svc.Evaluate(context.Background())
	}
	incs, err := r.List("maps")
	if err != nil || len(incs) != 1 {
		t.Fatalf("List(maps) = %+v, %v; want the one burn capture", incs, err)
	}
	want := regexp.MustCompile(`^slo ` + o.ID + ` availability burn severity (fast|slow) fast \d+\.\d\d slow \d+\.\d\d budget -?\d+\.\d{3}$`)
	if inc := incs[0]; inc.Trigger != "slo.burn" || !want.MatchString(inc.Reason) {
		t.Fatalf("incident = %s %q, want slo.burn matching %s", inc.Trigger, inc.Reason, want)
	}
}

// TestRecorderEventSelects: of everything the monitors publish, only
// burns and degradations capture.
func TestRecorderEventSelects(t *testing.T) {
	r, _, _ := harness(t, Config{})
	ctx := context.Background()
	for _, ev := range []obs.Event{
		{Kind: "slo", Name: "recovered", ModelID: "m1"},
		{Kind: "health", Name: "warning", ModelID: "m1", Fields: map[string]any{"from": "healthy", "reasons": "psi 0.15"}},
		{Kind: "health", Name: "drift", ModelID: "m1", Fields: map[string]any{"psi": 0.4}},
	} {
		r.Event(ctx, ev)
	}
	if incs, _ := r.List(""); len(incs) != 0 {
		t.Fatalf("captured %+v from events that merit no bundle", incs)
	}
	r.Event(ctx, obs.Event{Kind: "health", Name: "degraded", ModelID: "m1",
		Fields: map[string]any{"from": "healthy", "reasons": "psi 0.41 >= 0.25"}})
	incs, _ := r.List("")
	if len(incs) != 1 || incs[0].Trigger != "health.degraded" || incs[0].Reason != "health healthy -> degraded: psi 0.41 >= 0.25" {
		t.Fatalf("incidents = %+v", incs)
	}
}
