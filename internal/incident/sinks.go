package incident

import (
	"context"
	"errors"
	"fmt"

	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/rules"
)

// Event subscribes the recorder to what the monitors publish (it is an
// obs.EventFunc): every SLO burn — namespace- or model-scoped — and every
// model entering the degraded health state asks for a capture. Other
// events (recoveries, warnings, drift evidence) are visible in the audit
// trail but don't merit a bundle. The per-scope debounce turns a burn
// storm into at most one bundle per interval, so suppression here is the
// expected steady state, not an error; it and capture failure are both
// counted, and there is nothing else to do from a subscriber.
func (r *Recorder) Event(ctx context.Context, ev obs.Event) {
	f := ev.Fields
	switch {
	case ev.Kind == "slo" && ev.Name == "burn":
		_, _ = r.Trigger(ctx, Trigger{
			Kind:      "slo.burn",
			Namespace: ev.Namespace,
			ModelID:   ev.ModelID,
			Reason: fmt.Sprintf("slo %v %v burn severity %v fast %.2f slow %.2f budget %.3f",
				f["slo"], f["kind"], f["severity"], f["burn_fast"], f["burn_slow"], f["budget"]),
		})
	case ev.Kind == "health" && ev.Name == "degraded":
		_, _ = r.Trigger(ctx, Trigger{
			Kind:    "health.degraded",
			ModelID: ev.ModelID,
			Reason:  fmt.Sprintf("health %v -> %s: %v", f["from"], ev.Name, f["reasons"]),
		})
	}
}

// CaptureAction adapts the recorder into a rules-engine action named
// "capture", so a standing rule like
//
//	when: 'slo.event == "burn"'  actions: [capture]
//
// snapshots the implicated model's flight data. Suppression by the
// debounce is success from the rule's point of view — the evidence was
// already captured moments ago — so only real capture failures surface
// as action errors.
func CaptureAction(r *Recorder) func(*rules.ActionContext) error {
	return func(ac *rules.ActionContext) error {
		t := Trigger{Kind: "rule", Reason: "rule " + ac.Rule.UUID}
		if ac.Instance != nil {
			t.ModelID = ac.Instance.ModelID.String()
		}
		t.TraceID = trace.FromContext(ac.Ctx).TraceIDString()
		_, err := r.Trigger(ac.Ctx, t)
		if errors.Is(err, ErrSuppressed) {
			return nil
		}
		return err
	}
}
