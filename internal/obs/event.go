package obs

import (
	"context"

	"gallery/internal/uuid"
)

// Event is one signal a monitor publishes: a health verdict, an SLO burn,
// a profile regression. Every publisher emits this one shape and every
// subscriber — the rules engine, the incident recorder — takes it through
// an EventFunc, so a new signal needs no new interface.
type Event struct {
	// Kind names the publisher ("health", "slo", "profile"). It is the
	// identifier a rule watches and the variable Fields are bound under.
	Kind string
	// Name is the event within its kind ("drift", "burn", "regression");
	// rules read it as <kind>.event.
	Name string
	// Namespace and ModelID scope the event; both empty means the whole
	// process.
	Namespace string
	ModelID   string
	// Instance is the production instance behind a model-scoped event,
	// uuid.Nil when the scope has none.
	Instance uuid.UUID
	// Fields carries the numeric and string evidence. Subscribers must not
	// modify it: the same map is handed to each.
	Fields map[string]any
}

// EventFunc receives published events. Publishers call it outside their
// own locks, so a subscriber may call back into the publisher.
type EventFunc func(ctx context.Context, ev Event)
