package rules

import (
	"context"
	"testing"
)

// profileRule pages when a hot-path regression exceeds 3x baseline.
func profileRule() *Rule {
	return &Rule{
		UUID:        "9f1f6f60-0000-4000-8000-000000000010",
		Team:        "forecasting",
		Name:        "page-on-profile-regression",
		Kind:        KindAction,
		When:        `profile.event == "regression" && profile.factor > 3.0`,
		Environment: "production",
		Actions:     []ActionRef{{Action: "page"}},
	}
}

func TestProfileEventFiresWatchingRule(t *testing.T) {
	h := newHarness(t)
	h.commit(t, profileRule())

	var fired []*ActionContext
	h.eng.RegisterAction("page", func(ac *ActionContext) error {
		fired = append(fired, ac)
		return nil
	})

	// Mild deviation: under the rule's factor threshold.
	h.eng.Event(context.Background(), profileEvent(map[string]any{
		"process": "galleryd", "function": "hogEncode", "share": 0.1, "baseline": 0.05, "factor": 2.0,
	}))
	if len(fired) != 0 {
		t.Fatalf("rule fired at factor 2: %+v", fired)
	}
	// Severe regression fires; the action context has no instance — the
	// event is process-scoped.
	h.eng.Event(context.Background(), profileEvent(map[string]any{
		"process": "galleryd", "function": "hogEncode", "share": 0.4, "baseline": 0.05, "factor": 8.0,
	}))
	if len(fired) != 1 {
		t.Fatalf("fired %d times, want 1", len(fired))
	}
	if fired[0].Instance != nil {
		t.Fatalf("profile event carried an instance: %+v", fired[0].Instance)
	}
	// No "environment build failed" alert from the nil-instance path.
	if alerts := h.eng.Alerts(); len(alerts) != 0 {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestProfileEventIgnoresNonWatchingRules(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "demand", "UberX")
	h.upload(t, m, "sf")
	r := &Rule{
		UUID: "9f1f6f60-0000-4000-8000-000000000011",
		Team: "forecasting", Name: "metric-rule", Kind: KindAction,
		When:    `metrics.mape >= 0`,
		Actions: []ActionRef{{Action: "alert"}},
	}
	h.commit(t, r)
	before := h.eng.Stats().Evaluations
	h.eng.Event(context.Background(), profileEvent(map[string]any{"factor": 99.0}))
	if got := h.eng.Stats().Evaluations; got != before {
		t.Fatalf("profile event evaluated a metrics-only rule (%d -> %d)", before, got)
	}
}

// A profile rule that also references instance metrics fails soft (the
// reference evaluates against an empty metrics map), never firing and
// never crashing.
func TestProfileEventMetricsReferenceFailsSoft(t *testing.T) {
	h := newHarness(t)
	r := profileRule()
	r.When = `profile.event == "regression" && metrics.mape < 10`
	h.commit(t, r)
	fired := 0
	h.eng.RegisterAction("page", func(*ActionContext) error { fired++; return nil })
	h.eng.Event(context.Background(), profileEvent(map[string]any{"factor": 99.0}))
	if fired != 0 {
		t.Fatal("rule with unresolvable metrics reference fired")
	}
}
