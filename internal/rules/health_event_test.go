package rules

import (
	"context"
	"sync/atomic"
	"testing"

	"gallery/internal/obs"
	"gallery/internal/uuid"
)

// healthEvent is what health.Monitor publishes for a drift or skew
// episode on the model serving instance in.
func healthEvent(in uuid.UUID, name string, fields map[string]any) obs.Event {
	return obs.Event{Kind: "health", Name: name, ModelID: "m", Instance: in, Fields: fields}
}

// healthRule fires on drift events with strong PSI evidence.
func healthRule() *Rule {
	return &Rule{
		UUID:        "9f1f6f60-0000-4000-8000-000000000001",
		Team:        "forecasting",
		Name:        "retrain-on-drift",
		Kind:        KindAction,
		When:        `health.event == "drift" && health.psi > 0.25`,
		Environment: "production",
		Actions:     []ActionRef{{Action: "retrain"}},
	}
}

func TestHealthEventFiresWatchingRule(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "demand", "UberX")
	in := h.upload(t, m, "sf")
	h.commit(t, healthRule())

	var fired []*ActionContext
	h.eng.RegisterAction("retrain", func(ac *ActionContext) error {
		fired = append(fired, ac)
		return nil
	})

	// Weak evidence: the rule's condition does not hold.
	h.eng.Event(context.Background(), healthEvent(in.ID, "drift", map[string]any{"psi": 0.05}))
	if len(fired) != 0 {
		t.Fatalf("rule fired on psi=0.05: %+v", fired)
	}
	// A skew event must not satisfy a drift condition.
	h.eng.Event(context.Background(), healthEvent(in.ID, "skew", map[string]any{"psi": 0.9}))
	if len(fired) != 0 {
		t.Fatal("rule fired on skew event")
	}
	// Strong drift evidence fires the retrain callback.
	h.eng.Event(context.Background(), healthEvent(in.ID, "drift", map[string]any{"psi": 0.61, "kl": 1.2}))
	if len(fired) != 1 {
		t.Fatalf("fired %d times, want 1", len(fired))
	}
	if fired[0].Instance == nil || fired[0].Instance.ID != in.ID {
		t.Fatalf("action context instance = %+v", fired[0].Instance)
	}
}

func TestHealthEventIgnoresNonWatchingRules(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "demand", "UberX")
	in := h.upload(t, m, "sf")
	// A metrics-watching rule must not be dispatched by health events,
	// even if its condition would hold.
	r := &Rule{
		UUID: "9f1f6f60-0000-4000-8000-000000000002",
		Team: "forecasting", Name: "metric-rule", Kind: KindAction,
		When:    `metrics.mape >= 0`,
		Actions: []ActionRef{{Action: "alert"}},
	}
	h.commit(t, r)
	before := h.eng.Stats().Evaluations
	h.eng.Event(context.Background(), healthEvent(in.ID, "drift", map[string]any{"psi": 1.0}))
	if got := h.eng.Stats().Evaluations; got != before {
		t.Fatalf("health event evaluated a metrics-only rule (%d -> %d)", before, got)
	}
}

func TestHealthEventUnknownInstanceAlerts(t *testing.T) {
	h := newHarness(t)
	h.commit(t, healthRule())
	h.eng.Event(context.Background(), healthEvent(uuid.NewSeeded(99).New(), "drift", map[string]any{"psi": 1.0}))
	alerts := h.eng.Alerts()
	if len(alerts) != 1 || alerts[0].Action != "engine" {
		t.Fatalf("alerts = %+v, want one engine alert", alerts)
	}
}

// TestEngineEvent walks the one event entry through the cases the three
// deleted entries split between them, on an inline and on a started
// engine: what is evaluated, against which instance, and what is ignored.
func TestEngineEvent(t *testing.T) {
	sloRule := &Rule{
		UUID: "9f1f6f60-0000-4000-8000-000000000020",
		Team: "forecasting", Name: "page-on-burn", Kind: KindAction,
		When:    `slo.event == "burn" && slo.burn_fast > 14`,
		Actions: []ActionRef{{Action: "page"}},
	}
	constRule := &Rule{
		UUID: "9f1f6f60-0000-4000-8000-000000000021",
		Team: "forecasting", Name: "watches-nothing", Kind: KindAction,
		When:    `1 < 2`,
		Actions: []ActionRef{{Action: "page"}},
	}
	burn := map[string]any{"slo": "s1", "burn_fast": 20.0}
	cases := []struct {
		name string
		ev   func(in uuid.UUID) obs.Event
		// wantEvents/wantFired: engine events counted and "page" firings.
		wantEvents, wantFired int64
		wantInstance          bool
	}{
		{"model event with instance fires", func(in uuid.UUID) obs.Event {
			return obs.Event{Kind: "slo", Name: "burn", Namespace: "maps", ModelID: "m", Instance: in, Fields: burn}
		}, 1, 1, true},
		{"recovered does not satisfy a burn rule", func(in uuid.UUID) obs.Event {
			return obs.Event{Kind: "slo", Name: "recovered", Namespace: "maps", ModelID: "m", Instance: in, Fields: burn}
		}, 1, 0, false},
		{"namespace scope is ignored", func(uuid.UUID) obs.Event {
			return obs.Event{Kind: "slo", Name: "burn", Namespace: "maps", Fields: burn}
		}, 0, 0, false},
		{"model scope without an instance is ignored", func(uuid.UUID) obs.Event {
			return obs.Event{Kind: "slo", Name: "burn", Namespace: "maps", ModelID: "m", Fields: burn}
		}, 0, 0, false},
		{"health status change is ignored", func(uuid.UUID) obs.Event {
			return obs.Event{Kind: "health", Name: "degraded", ModelID: "m", Fields: map[string]any{"from": "healthy"}}
		}, 0, 0, false},
		{"event without an instance is ignored", func(uuid.UUID) obs.Event {
			return obs.Event{Kind: "slo", Name: "burn", Fields: burn}
		}, 0, 0, false},
		{"kind no rule watches", func(in uuid.UUID) obs.Event {
			return obs.Event{Kind: "nonesuch", Name: "x", Instance: in}
		}, 1, 0, false},
	}
	for _, started := range []bool{false, true} {
		mode := "inline"
		if started {
			mode = "started"
		}
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				h := newHarness(t)
				in := h.upload(t, h.model(t, "demand", "UberX"), "sf")
				h.commit(t, sloRule, constRule)
				var fired, withInstance atomic.Int64
				h.eng.RegisterAction("page", func(ac *ActionContext) error {
					fired.Add(1)
					if ac.Instance != nil && ac.Instance.ID == in.ID {
						withInstance.Add(1)
					}
					return nil
				})
				if started {
					h.eng.Start(2)
					defer h.eng.Stop()
				}
				ev := tc.ev(in.ID)
				h.eng.Event(context.Background(), ev)
				h.eng.Flush()
				if got := h.eng.Stats().EventsTriggered; got != tc.wantEvents {
					t.Errorf("EventsTriggered = %d, want %d", got, tc.wantEvents)
				}
				if got := fired.Load(); got != tc.wantFired {
					t.Errorf("page fired %d times, want %d", got, tc.wantFired)
				}
				if got := withInstance.Load() == 1; got != tc.wantInstance {
					t.Errorf("action saw the instance = %v, want %v", got, tc.wantInstance)
				}
				if _, leaked := ev.Fields["event"]; leaked {
					t.Error("engine wrote into the publisher's Fields map")
				}
				if alerts := h.eng.Alerts(); len(alerts) != 0 {
					t.Errorf("alerts = %+v", alerts)
				}
			})
		}
	}
}
