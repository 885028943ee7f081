// Package audit implements Gallery's durable lifecycle audit trail: an
// append-only audit_events table in the metadata store recording every
// mutation — model and instance creation, promotion, deprecation, rule
// firings, health status transitions, serving hot swaps — each event
// carrying the actor, a before→after summary, and the active trace ID so
// events join log lines and /v1/debug/traces on one key.
//
// The table rides the same relational store (and therefore the same WAL)
// as the rest of the metadata, so the trail survives crashes and restarts
// with no machinery of its own: replay rebuilds it, and the sequence
// counter resumes past the highest recovered event. Retention is per
// entity — the newest Keep events for each entity id survive pruning, so
// a churning model cannot starve the history of a quiet one.
package audit

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gallery/internal/clock"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// Table is the audit trail's table in the metadata store.
const Table = "audit_events"

// Entity types an event can reference.
const (
	EntityModel     = "model"
	EntityInstance  = "instance"
	EntityRule      = "rule"
	EntityNamespace = "namespace"
	EntitySLO       = "slo"
)

// Actions recorded by the built-in emission hooks. The set is open:
// callers may record domain-specific actions of their own.
const (
	ActionModelRegister     = "model.register"
	ActionModelEvolve       = "model.evolve"
	ActionModelDeprecate    = "model.deprecate"
	ActionDepAdd            = "model.dep_add"
	ActionDepRemove         = "model.dep_remove"
	ActionInstanceUpload    = "instance.upload"
	ActionUploadFailed      = "instance.upload_failed"
	ActionInstanceDeprecate = "instance.deprecate"
	ActionPromote           = "version.promote"
	ActionRuleFire          = "rule.fire"
	ActionHealthTransition  = "health.transition"
	ActionServeSwap         = "serve.swap"
	ActionBlobServeFailed   = "blob.serve_failed"
	ActionAuthDenied        = "auth.denied"
	ActionSLOCreate         = "slo.create"
	ActionSLODelete         = "slo.delete"
	ActionSLOBurn           = "slo.burn"
	ActionSLORecovered      = "slo.recovered"
)

// Event is one audit record. EntityID names the most specific entity the
// mutation acted on; ModelID (when set) is the owning model, so a model's
// timeline also surfaces what happened to its instances.
type Event struct {
	ID         string
	Seq        int64
	Time       time.Time
	Actor      string
	Action     string
	EntityType string
	EntityID   string
	ModelID    string
	Before     string
	After      string
	Detail     string
	TraceID    string
}

// Schema returns the audit_events relational schema. Secondary indexes
// cover the three query axes the API exposes: by entity, by action, and
// by time; model_id joins instance events into model timelines and seq
// gives ordered scans an index to stream.
func Schema() relstore.Schema {
	return relstore.Schema{
		Table: Table,
		Columns: []relstore.Column{
			{Name: "id", Kind: relstore.KindString},
			{Name: "seq", Kind: relstore.KindInt},
			{Name: "created", Kind: relstore.KindTime},
			{Name: "actor", Kind: relstore.KindString},
			{Name: "action", Kind: relstore.KindString},
			{Name: "entity_type", Kind: relstore.KindString},
			{Name: "entity_id", Kind: relstore.KindString},
			{Name: "model_id", Kind: relstore.KindString, Nullable: true},
			{Name: "before", Kind: relstore.KindString, Nullable: true},
			{Name: "after", Kind: relstore.KindString, Nullable: true},
			{Name: "detail", Kind: relstore.KindString, Nullable: true},
			{Name: "trace_id", Kind: relstore.KindString, Nullable: true},
		},
		Key:     "id",
		Indexes: []string{"entity_id", "action", "created", "model_id", "seq"},
	}
}

// Options configures a Log.
type Options struct {
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// UUIDs defaults to the crypto/rand generator.
	UUIDs *uuid.Generator
	// Keep bounds the events retained per entity id; older events are
	// pruned as new ones land. 0 uses DefaultKeep; negative disables
	// pruning.
	Keep int
	// Obs receives the audit_events_total counters; nil uses obs.Default.
	Obs *obs.Registry
}

// DefaultKeep is the per-entity retention bound when Options.Keep is 0.
const DefaultKeep = 256

// Log is the append-only audit trail over one metadata store. It is safe
// for concurrent use; Record calls are serialized so one entity's
// timeline order is exactly the order callers observed.
type Log struct {
	store *relstore.Store
	clk   clock.Clock
	gen   *uuid.Generator
	keep  int
	reg   *obs.Registry

	cErrs   *obs.Counter
	cPruned *obs.Counter

	mu  sync.Mutex
	seq int64
}

// Open declares the audit_events table on store (idempotent over a
// recovered store) and resumes the event sequence past the highest
// recovered event.
func Open(store *relstore.Store, opts Options) (*Log, error) {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.UUIDs == nil {
		opts.UUIDs = uuid.NewGenerator()
	}
	if opts.Keep == 0 {
		opts.Keep = DefaultKeep
	}
	if opts.Obs == nil {
		opts.Obs = obs.Default
	}
	if err := store.CreateTable(Schema()); err != nil {
		return nil, err
	}
	l := &Log{
		store:   store,
		clk:     opts.Clock,
		gen:     opts.UUIDs,
		keep:    opts.Keep,
		reg:     opts.Obs,
		cErrs:   opts.Obs.Counter("audit_events_errors_total"),
		cPruned: opts.Obs.Counter("audit_events_pruned_total"),
	}
	// Crash recovery: WAL replay already rebuilt the table; find where the
	// sequence left off so new events extend the timeline, never fork it.
	rows, err := store.Select(relstore.Query{Table: Table, OrderBy: "seq", Desc: true, Limit: 1})
	if err != nil {
		return nil, err
	}
	if len(rows) > 0 {
		l.seq = rows[0]["seq"].Int
	}
	return l, nil
}

// Record appends one event. Zero fields are stamped: ID and Seq are
// assigned, Time defaults to the clock, Actor falls back to the context
// actor (see WithActor) and then "system", and TraceID is taken from the
// context's active span when unset. Recording also prunes the entity's
// history down to the retention bound.
func (l *Log) Record(ctx context.Context, ev Event) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ev.Action == "" || ev.EntityID == "" {
		l.cErrs.Inc()
		return fmt.Errorf("audit: event needs an action and an entity id (got action=%q entity=%q)", ev.Action, ev.EntityID)
	}
	if ev.Time.IsZero() {
		ev.Time = l.clk.Now()
	}
	if ev.Actor == "" {
		ev.Actor = ActorFrom(ctx)
	}
	if ev.Actor == "" {
		ev.Actor = "system"
	}
	if ev.TraceID == "" {
		ev.TraceID = trace.FromContext(ctx).TraceIDString()
	}
	ev.ID = l.gen.New().String()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev.Seq = l.seq
	if err := l.store.InsertCtx(ctx, Table, eventToRow(ev)); err != nil {
		l.seq-- // the sequence number was never durably used
		l.cErrs.Inc()
		return err
	}
	l.reg.Counter(obs.Name("audit_events_total", "action", ev.Action)).Inc()
	if l.keep > 0 {
		if n, err := l.pruneLocked(ctx, ev.EntityID, l.keep); err == nil && n > 0 {
			l.cPruned.Add(int64(n))
		}
	}
	return nil
}

// Query filters audit events. All set fields AND together; Where adds raw
// relstore constraints for the API's field/operator/value search.
type Query struct {
	EntityID string
	ModelID  string
	Action   string
	Actor    string
	TraceID  string
	Since    time.Time // events at or after this instant
	Until    time.Time // events before this instant
	Where    []relstore.Constraint
	Limit    int  // 0 = unlimited
	Desc     bool // newest first when true
}

// Events returns matching events ordered by sequence.
func (l *Log) Events(q Query) ([]Event, error) {
	where := q.Where
	addEq := func(field, val string) {
		if val != "" {
			where = append(where, relstore.Constraint{Field: field, Op: relstore.OpEq, Value: relstore.String(val)})
		}
	}
	addEq("entity_id", q.EntityID)
	addEq("model_id", q.ModelID)
	addEq("action", q.Action)
	addEq("actor", q.Actor)
	addEq("trace_id", q.TraceID)
	if !q.Since.IsZero() {
		where = append(where, relstore.Constraint{Field: "created", Op: relstore.OpGe, Value: relstore.Time(q.Since)})
	}
	if !q.Until.IsZero() {
		where = append(where, relstore.Constraint{Field: "created", Op: relstore.OpLt, Value: relstore.Time(q.Until)})
	}
	out := []Event{}
	_, err := l.store.SelectFunc(context.Background(), relstore.Query{
		Table:   Table,
		Where:   where,
		OrderBy: "seq",
		Desc:    q.Desc,
		Limit:   q.Limit,
	}, func(r relstore.Row) bool {
		out = append(out, rowToEvent(r)) // the only copy: rows are read in place
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EntityTimeline returns the lineage timeline for one entity, oldest
// first: every event acting on it directly plus — when the id is a
// model's — events on its instances (joined through model_id). A positive
// limit keeps the newest events.
func (l *Log) EntityTimeline(entityID string, limit int) ([]Event, error) {
	direct, err := l.Events(Query{EntityID: entityID})
	if err != nil {
		return nil, err
	}
	owned, err := l.Events(Query{ModelID: entityID})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(direct))
	for _, ev := range direct {
		seen[ev.ID] = true
	}
	out := direct
	for _, ev := range owned {
		if !seen[ev.ID] {
			out = append(out, ev)
		}
	}
	sortEvents(out)
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out, nil
}

// Prune drops an entity's oldest events beyond keep and reports how many
// were deleted.
func (l *Log) Prune(ctx context.Context, entityID string, keep int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pruneLocked(ctx, entityID, keep)
}

func (l *Log) pruneLocked(ctx context.Context, entityID string, keep int) (int, error) {
	if keep <= 0 {
		return 0, nil
	}
	// No span for this read: it runs inside every Record, so in every
	// mutating request's trace, and the insert's span already marks it.
	var ids []string
	_, err := l.store.SelectFunc(context.Background(), relstore.Query{
		Table:   Table,
		Where:   []relstore.Constraint{{Field: "entity_id", Op: relstore.OpEq, Value: relstore.String(entityID)}},
		OrderBy: "seq",
	}, func(r relstore.Row) bool {
		ids = append(ids, r["id"].Str)
		return true
	})
	if err != nil {
		return 0, err
	}
	excess := len(ids) - keep
	if excess <= 0 {
		return 0, nil
	}
	muts := make([]relstore.Mutation, 0, excess)
	for _, id := range ids[:excess] {
		muts = append(muts, relstore.Mutation{Kind: relstore.MutDelete, Table: Table, PK: id})
	}
	if err := l.store.BatchCtx(ctx, muts); err != nil {
		return 0, err
	}
	return excess, nil
}

// Len reports the total number of retained events.
func (l *Log) Len() int {
	n, _ := l.store.Len(Table)
	return n
}

// --- actor propagation ---

type actorKey struct{}

// WithActor stamps the acting principal (API caller, subsystem name) on a
// context; every audit event recorded under it inherits the actor unless
// one is set explicitly.
func WithActor(ctx context.Context, actor string) context.Context {
	if actor == "" {
		return ctx
	}
	return context.WithValue(ctx, actorKey{}, actor)
}

// ActorFrom returns the context's actor, or "".
func ActorFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	a, _ := ctx.Value(actorKey{}).(string)
	return a
}

// --- row conversion ---

func eventToRow(ev Event) relstore.Row {
	return relstore.Row{
		"id":          relstore.String(ev.ID),
		"seq":         relstore.Int(ev.Seq),
		"created":     relstore.Time(ev.Time),
		"actor":       relstore.String(ev.Actor),
		"action":      relstore.String(ev.Action),
		"entity_type": relstore.String(ev.EntityType),
		"entity_id":   relstore.String(ev.EntityID),
		"model_id":    relstore.String(ev.ModelID),
		"before":      relstore.String(ev.Before),
		"after":       relstore.String(ev.After),
		"detail":      relstore.String(ev.Detail),
		"trace_id":    relstore.String(ev.TraceID),
	}
}

func rowToEvent(r relstore.Row) Event {
	return Event{
		ID:         r["id"].Str,
		Seq:        r["seq"].Int,
		Time:       r["created"].Time,
		Actor:      r["actor"].Str,
		Action:     r["action"].Str,
		EntityType: r["entity_type"].Str,
		EntityID:   r["entity_id"].Str,
		ModelID:    r["model_id"].Str,
		Before:     r["before"].Str,
		After:      r["after"].Str,
		Detail:     r["detail"].Str,
		TraceID:    r["trace_id"].Str,
	}
}

func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ { // insertion sort: inputs are near-sorted merges
		for j := i; j > 0 && evs[j].Seq < evs[j-1].Seq; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}
