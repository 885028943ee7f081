package rules

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gallery/internal/audit"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/expr"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/uuid"
)

// Action is a framework-agnostic callback the engine invokes when an
// action rule fires (paper §3.7: "we expect users to define callback
// functions that will be triggered by the rule engine").
type Action func(ctx *ActionContext) error

// ActionContext carries everything a callback needs.
type ActionContext struct {
	// Ctx is the firing rule evaluation's context: it carries the trace
	// lineage of the triggering event and the audit actor, so callbacks
	// that mutate the registry should pass it to the *Ctx variants.
	Ctx  context.Context
	Rule *Rule
	// Instance is the instance the rule matched; never nil.
	Instance *core.Instance
	Metrics  map[string]float64
	Params   map[string]any
	Time     time.Time
}

// Alert is a record produced by the built-in alert/email/log actions and
// by action failures. Experiments and operators read these.
type Alert struct {
	Time       time.Time
	RuleUUID   string
	InstanceID uuid.UUID
	Action     string
	Message    string
}

// Stats counts engine activity.
type Stats struct {
	Evaluations       int64 // rule condition evaluations
	Matches           int64 // conditions that held
	ActionsRun        int64
	ActionErrors      int64
	SelectionRequests int64
	EventsTriggered   int64 // triggers accepted: queued, or run inline
	EventsDropped     int64 // triggers refused: queue full, or engine stopped
}

// queueSize bounds the triggers waiting for a worker: room for a burst of
// metric writes while every worker sits in a slow action (a capture pulls
// the gateway's bundle over HTTP). Past it, a trigger is dropped rather
// than stall the request or monitor loop that sent it.
const queueSize = 1024

// Engine evaluates rules against the Gallery registry. Evaluation is event
// based (paper §3.7.2): metric, metadata and monitor events are triggers
// on one bounded queue drained by worker goroutines; tests and callers
// that need determinism use Flush to wait for the queue to empty.
type Engine struct {
	reg  *core.Registry
	repo *Repo
	clk  clock.Clock

	// Environment scopes which rules apply (rules declare "production"
	// etc.; an empty rule environment matches everywhere).
	Environment string

	mu      sync.Mutex
	actions map[string]Action
	alerts  []Alert
	mx      engineMetrics

	// The trigger queue, nil until Start and closed by Stop. mu orders a
	// send against the close; queued counts triggers not yet run, and idle
	// signals it reaching zero.
	jobs             chan trigger
	idle             *sync.Cond
	queued           int
	started, stopped bool
}

// engineMetrics are the engine's counts; Stats reads them back, so
// /v1/debug/metrics and Stats never disagree.
type engineMetrics struct {
	evaluations  *obs.Counter
	matches      *obs.Counter
	actionsRun   *obs.Counter
	actionErrors *obs.Counter
	events       *obs.Counter
	dropped      *obs.Counter
	selections   *obs.Counter
	alerts       *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		evaluations:  reg.Counter("rules_evaluations_total"),
		matches:      reg.Counter("rules_matches_total"),
		actionsRun:   reg.Counter("rules_actions_run_total"),
		actionErrors: reg.Counter("rules_action_errors_total"),
		events:       reg.Counter("rules_events_triggered_total"),
		dropped:      obs.Dropped(reg).With(obs.ChannelRules),
		selections:   reg.Counter("rules_selection_requests_total"),
		alerts:       reg.Counter("rules_alerts_total"),
	}
}

// Instrument moves the engine's counts into reg; until then they live in
// a registry of the engine's own. Call before serving traffic: counts
// taken earlier stay behind.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mx = newEngineMetrics(reg)
}

// trigger is one event on the queue: the instance it concerns and the
// identifiers it changed.
type trigger struct {
	// ctx carries trace lineage from the triggering request; a queued
	// trigger's is detached (trace.Detach) so the rule run is not
	// cancelled when the HTTP request that inserted the metric returns.
	ctx        context.Context
	instanceID uuid.UUID
	// extra adds event-specific variables to the evaluation environment
	// (e.g. the "health" payload of a drift event); nil for plain
	// metric/metadata triggers.
	extra  map[string]any
	idents []string
}

// NewEngine assembles an engine. The built-in actions log, alert, and
// email are pre-registered; applications add their own (deployment,
// retraining, ...) with RegisterAction.
func NewEngine(reg *core.Registry, repo *Repo, clk clock.Clock) *Engine {
	if clk == nil {
		clk = clock.Real{}
	}
	e := &Engine{
		reg:         reg,
		repo:        repo,
		clk:         clk,
		Environment: "production",
		actions:     make(map[string]Action),
		mx:          newEngineMetrics(obs.NewRegistry()),
	}
	e.idle = sync.NewCond(&e.mu)
	record := func(name string) Action {
		return func(ctx *ActionContext) error {
			e.recordAlert(Alert{
				Time:       ctx.Time,
				RuleUUID:   ctx.Rule.UUID,
				InstanceID: ctx.Instance.ID,
				Action:     name,
				Message:    fmt.Sprintf("%v", ctx.Params["message"]),
			})
			return nil
		}
	}
	e.actions["log"] = record("log")
	e.actions["alert"] = record("alert")
	e.actions["email"] = record("email")
	return e
}

// RegisterAction installs (or replaces) a named callback.
func (e *Engine) RegisterAction(name string, a Action) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.actions[name] = a
}

// Start launches the worker pool that drains the trigger queue. An
// engine never started runs every trigger inline, on the caller.
func (e *Engine) Start(workers int) {
	if workers <= 0 {
		workers = 4
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true
	e.jobs = make(chan trigger, queueSize)
	for i := 0; i < workers; i++ {
		go e.work(e.jobs)
	}
}

func (e *Engine) work(jobs <-chan trigger) {
	for t := range jobs {
		// A rule that fired wrote (audit row, promotion, capture) with no
		// client waiting: the trigger is the unit of work, so it commits.
		// Nothing fired, nothing written, no fsync.
		if e.run(t) && e.reg != nil {
			_ = e.reg.Commit(t.ctx) // sticky in the WAL; the next request reports it
		}
		e.mu.Lock()
		if e.queued--; e.queued == 0 {
			e.idle.Broadcast()
		}
		e.mu.Unlock()
	}
}

// Stop runs what is queued and stops the workers. Later triggers are
// dropped and counted. Safe to call twice, or without Start.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.started && !e.stopped {
		e.stopped = true
		close(e.jobs)
	}
	e.mu.Unlock()
	e.Flush()
}

// Flush blocks until every queued trigger has been run.
func (e *Engine) Flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.queued > 0 {
		e.idle.Wait()
	}
}

// --- event trigger (paper Fig. 8, Client 2) ---

// metricIdents is what every metric trigger changed; shared, so the
// trigger allocates no slice.
var metricIdents = []string{"metrics"}

// MetricUpdatedCtx notifies the engine that an instance gained a metric
// measurement. Every active action rule in scope that watches metrics is
// re-evaluated against that instance, with ctx's trace lineage, so the
// evaluations show up as child spans of the metric insert that caused
// them.
func (e *Engine) MetricUpdatedCtx(ctx context.Context, instanceID uuid.UUID) {
	e.trigger(trigger{ctx: ctx, instanceID: instanceID, idents: metricIdents})
}

// MetadataUpdatedCtx notifies the engine that an instance's metadata
// changed; action rules watching any of the named fields re-evaluate.
func (e *Engine) MetadataUpdatedCtx(ctx context.Context, instanceID uuid.UUID, fields ...string) {
	e.trigger(trigger{ctx: ctx, instanceID: instanceID, idents: fields})
}

// Event is the one entry for everything a monitor publishes — health
// drift and skew, SLO burns and recoveries (it is an obs.EventFunc).
// Action rules in scope that watch the identifier ev.Kind re-evaluate
// with a variable of that name holding ev.Fields plus the event name, so
// a rule can say e.g.
//
//	when: 'health.event == "drift" && health.psi > 0.25'
//	when: 'slo.event == "burn" && slo.burn_fast > 14'
//
// and close the paper's detect → retrain loop automatically. Rules
// execute against an instance environment, so an event that names no
// instance (a namespace-level burn, a model nobody serves, a health
// status change) is ignored.
func (e *Engine) Event(ctx context.Context, ev obs.Event) {
	if ev.Instance == uuid.Nil {
		return
	}
	payload := make(map[string]any, len(ev.Fields)+1)
	for k, v := range ev.Fields {
		payload[k] = v
	}
	payload["event"] = ev.Name
	e.trigger(trigger{ctx: ctx, instanceID: ev.Instance, extra: map[string]any{ev.Kind: payload}, idents: []string{ev.Kind}})
}

// trigger hands t to the queue without waiting: a full queue, or a
// stopped engine, drops it and counts the loss in
// telemetry_dropped_total{channel="rules"}. Rule re-evaluation is best
// effort; the next update re-triggers it. An engine never started runs t
// inline instead.
func (e *Engine) trigger(t trigger) {
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		e.mx.events.Inc()
		e.run(t)
		return
	}
	queued := false
	if !e.stopped {
		t.ctx = trace.Detach(t.ctx)
		select {
		case e.jobs <- t:
			e.queued++
			queued = true
		default:
		}
	}
	e.mu.Unlock()
	if queued {
		e.mx.events.Inc()
	} else {
		e.mx.dropped.Inc()
	}
}

// run evaluates every active action rule in scope that watches one of
// t's identifiers against t's instance, and reports whether any fired.
func (e *Engine) run(t trigger) (fired bool) {
	for _, rule := range e.repo.Active() {
		if rule.Kind != KindAction || !e.inScope(rule) {
			continue
		}
		for _, id := range t.idents {
			if watches(rule, id) {
				if e.runActionRule(t.ctx, rule, t.instanceID, t.extra) {
					fired = true
				}
				break
			}
		}
	}
	return fired
}

func watches(rule *Rule, field string) bool {
	for _, id := range rule.WatchedIdents() {
		if id == field {
			return true
		}
	}
	return false
}

func (e *Engine) inScope(rule *Rule) bool {
	return rule.Environment == "" || rule.Environment == e.Environment
}

// runActionRule evaluates one action rule against one instance and fires
// its callbacks when the condition holds. Evaluation errors (e.g. a rule
// referencing a metric the instance has not reported) mean "condition not
// met", surfaced as a log alert rather than a crash. It reports whether
// the condition held.
func (e *Engine) runActionRule(ctx context.Context, rule *Rule, instanceID uuid.UUID, extra map[string]any) bool {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := trace.Start(ctx, "rules.evaluate")
	if span != nil {
		span.Annotate("rule", rule.UUID)
		span.Annotate("instance", instanceID.String())
	}
	env, in, err := e.instanceEnv(ctx, instanceID)
	if err != nil {
		e.recordAlert(Alert{Time: e.clk.Now(), RuleUUID: rule.UUID, InstanceID: instanceID,
			Action: "engine", Message: "environment build failed: " + err.Error()})
		span.EndErr(err)
		return false
	}
	for k, v := range extra {
		env.Vars[k] = v
	}
	ok, evalErr := e.condition(rule, env)
	e.countEvaluation(ok)
	if span != nil {
		span.Annotate("matched", fmt.Sprintf("%t", ok))
	}
	if evalErr != nil {
		var ee *expr.EvalError
		if !errors.As(evalErr, &ee) {
			e.recordAlert(Alert{Time: e.clk.Now(), RuleUUID: rule.UUID, InstanceID: instanceID,
				Action: "engine", Message: "condition error: " + evalErr.Error()})
			span.EndErr(evalErr)
			return false
		}
		span.End()
		return false
	}
	if !ok {
		span.End()
		return false
	}
	metrics, _ := env.Vars["metrics"].(map[string]any)
	ctx = audit.WithActor(ctx, "rules")
	ac := &ActionContext{
		Ctx:      ctx,
		Rule:     rule,
		Instance: in,
		Metrics:  toFloatMap(metrics),
		Time:     e.clk.Now(),
	}
	var fired, failed []string
	for _, ref := range rule.Actions {
		e.mu.Lock()
		a, known := e.actions[ref.Action]
		e.mu.Unlock()
		ac.Params = ref.Params
		_, aspan := trace.Start(ctx, "rules.action")
		if aspan != nil {
			aspan.Annotate("action", ref.Action)
		}
		if !known {
			e.mx.actionErrors.Inc()
			e.recordAlert(Alert{Time: e.clk.Now(), RuleUUID: rule.UUID, InstanceID: instanceID,
				Action: ref.Action, Message: "unknown action"})
			aspan.Fail("unknown action")
			aspan.End()
			continue
		}
		err := a(ac)
		aspan.EndErr(err)
		e.mx.actionsRun.Inc()
		if err != nil {
			e.mx.actionErrors.Inc()
			failed = append(failed, ref.Action)
			e.recordAlert(Alert{Time: e.clk.Now(), RuleUUID: rule.UUID, InstanceID: instanceID,
				Action: ref.Action, Message: "action failed: " + err.Error()})
		} else {
			fired = append(fired, ref.Action)
		}
	}
	e.auditFiring(ctx, rule, in, fired, failed)
	span.End()
	return true
}

func (e *Engine) countEvaluation(matched bool) {
	e.mx.evaluations.Inc()
	if matched {
		e.mx.matches.Inc()
	}
}

// auditFiring records a rule firing on the matched instance's audit
// timeline, with the owning model joined through model_id.
func (e *Engine) auditFiring(ctx context.Context, rule *Rule, in *core.Instance, fired, failed []string) {
	if e.reg == nil || e.reg.Audit() == nil {
		return
	}
	detail := "actions: " + strings.Join(fired, ",")
	if len(failed) > 0 {
		detail += " failed: " + strings.Join(failed, ",")
	}
	ev := audit.Event{
		Action:     audit.ActionRuleFire,
		EntityType: audit.EntityInstance,
		EntityID:   in.ID.String(),
		ModelID:    in.ModelID.String(),
		Detail:     fmt.Sprintf("rule=%s (%s) %s", rule.Name, rule.UUID, detail),
	}
	_ = e.reg.Audit().Record(ctx, ev)
}

// condition evaluates given && when against env.
func (e *Engine) condition(rule *Rule, env *expr.Env) (bool, error) {
	given, when, err := rule.Condition()
	if err != nil {
		return false, err
	}
	for _, n := range []expr.Node{given, when} {
		if n == nil {
			continue
		}
		v, err := expr.EvalNode(n, env)
		if err != nil {
			return false, err
		}
		b, ok := v.(bool)
		if !ok {
			return false, fmt.Errorf("rules: condition of %s is not boolean", rule.UUID)
		}
		if !b {
			return false, nil
		}
	}
	return true, nil
}

// --- selection trigger (paper Fig. 8, Client 1) ---

// SelectModel applies a model-selection rule over the candidates matching
// filter and returns the winner (paper §3.7: "At serving time, users will
// query Gallery for the champion model to serve based on the user-defined
// rules").
func (e *Engine) SelectModel(ruleID string, filter core.InstanceFilter) (*core.Instance, error) {
	rule, ok := e.repo.Get(ruleID)
	if !ok {
		return nil, fmt.Errorf("rules: no active rule %s", ruleID)
	}
	if rule.Kind != KindSelection {
		return nil, fmt.Errorf("rules: %s is not a selection rule", ruleID)
	}
	e.mx.selections.Inc()

	candidates, err := e.reg.SearchInstances(filter)
	if err != nil {
		return nil, err
	}
	selNode, err := expr.Parse(rule.ModelSelection)
	if err != nil {
		return nil, err
	}

	var best *core.Instance
	var bestEnv map[string]any
	for _, c := range candidates {
		env, _, err := e.instanceEnv(context.Background(), c.ID)
		if err != nil {
			continue
		}
		ok, evalErr := e.condition(rule, env)
		e.countEvaluation(ok)
		if evalErr != nil || !ok {
			continue
		}
		if best == nil {
			best, bestEnv = c, env.Vars
			continue
		}
		prefer, err := expr.EvalNode(selNode, &expr.Env{Vars: map[string]any{
			"a": env.Vars, "b": bestEnv,
		}})
		if err != nil {
			continue
		}
		if p, ok := prefer.(bool); ok && p {
			best, bestEnv = c, env.Vars
		}
	}
	if best == nil {
		return nil, fmt.Errorf("rules: no candidate satisfies rule %s", ruleID)
	}
	return best, nil
}

// instanceEnv builds the expression environment for one instance: its
// metadata fields plus the latest metrics across scopes (later lifecycle
// stages override earlier ones, so metrics.mape means the freshest,
// most production-like measurement).
func (e *Engine) instanceEnv(ctx context.Context, instanceID uuid.UUID) (*expr.Env, *core.Instance, error) {
	in, err := e.reg.GetInstanceCtx(ctx, instanceID)
	if err != nil {
		return nil, nil, err
	}
	model, err := e.reg.GetModel(in.ModelID)
	if err != nil {
		return nil, nil, err
	}
	metrics := make(map[string]any)
	for _, scope := range []core.Scope{core.ScopeTraining, core.ScopeValidation, core.ScopeProduction} {
		vals, err := e.reg.LatestMetrics(instanceID, scope)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range vals {
			metrics[k] = v
		}
	}
	return &expr.Env{Vars: map[string]any{
		"instance_id":     in.ID.String(),
		"instance_name":   in.Name,
		"model_id":        model.ID.String(),
		"model_name":      model.Name,
		"model_domain":    model.Domain,
		"base_version_id": in.BaseVersionID,
		"project":         in.Project,
		"city":            in.City,
		"framework":       in.Framework,
		"created":         float64(in.Created.Unix()),
		"created_time":    float64(in.Created.Unix()),
		"deprecated":      in.Deprecated,
		"metrics":         metrics,
	}}, in, nil
}

func toFloatMap(m map[string]any) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// Alerts returns a copy of the alert log.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, len(e.alerts))
	copy(out, e.alerts)
	return out
}

func (e *Engine) recordAlert(a Alert) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.alerts = append(e.alerts, a)
	e.mx.alerts.Inc()
}

// Stats returns a snapshot of activity counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	mx := e.mx
	e.mu.Unlock()
	return Stats{
		Evaluations:       mx.evaluations.Value(),
		Matches:           mx.matches.Value(),
		ActionsRun:        mx.actionsRun.Value(),
		ActionErrors:      mx.actionErrors.Value(),
		SelectionRequests: mx.selections.Value(),
		EventsTriggered:   mx.events.Value(),
		EventsDropped:     mx.dropped.Value(),
	}
}
