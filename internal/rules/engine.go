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
	Ctx      context.Context
	Rule     *Rule
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
	EventsTriggered   int64
}

// Engine evaluates rules against the Gallery registry. Evaluation is event
// based (paper §3.7.2): direct selection requests and metric/metadata
// update events both flow through a job queue drained by worker
// goroutines; tests and callers that need determinism use Flush to wait
// for the queue to empty.
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
	stats   Stats
	mx      engineMetrics

	jobs    chan job
	pending sync.WaitGroup
	started bool
}

// engineMetrics mirrors Stats into an obs registry so the rule engine
// shows up in /v1/debug/metrics alongside the storage layer.
type engineMetrics struct {
	evaluations  *obs.Counter
	matches      *obs.Counter
	actionsRun   *obs.Counter
	actionErrors *obs.Counter
	events       *obs.Counter
	selections   *obs.Counter
	alerts       *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return engineMetrics{
		evaluations:  reg.Counter("rules_evaluations_total"),
		matches:      reg.Counter("rules_matches_total"),
		actionsRun:   reg.Counter("rules_actions_run_total"),
		actionErrors: reg.Counter("rules_action_errors_total"),
		events:       reg.Counter("rules_events_triggered_total"),
		selections:   reg.Counter("rules_selection_requests_total"),
		alerts:       reg.Counter("rules_alerts_total"),
	}
}

// Instrument redirects the engine's metrics to reg (default obs.Default).
// Call before serving traffic.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mx = newEngineMetrics(reg)
}

type job struct {
	// ctx carries trace lineage from the triggering request; it is
	// detached (trace.Detach) so the rule run is not cancelled when the
	// HTTP request that inserted the metric returns.
	ctx        context.Context
	rule       *Rule
	instanceID uuid.UUID
	// extra adds event-specific variables to the evaluation environment
	// (e.g. the "health" payload of a drift event); nil for plain
	// metric/metadata triggers.
	extra map[string]any
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
		mx:          newEngineMetrics(nil),
	}
	record := func(name string) Action {
		return func(ctx *ActionContext) error {
			e.recordAlert(Alert{
				Time:       ctx.Time,
				RuleUUID:   ctx.Rule.UUID,
				InstanceID: instanceIDOf(ctx),
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

func instanceIDOf(ctx *ActionContext) uuid.UUID {
	if ctx.Instance == nil {
		return uuid.Nil
	}
	return ctx.Instance.ID
}

// RegisterAction installs (or replaces) a named callback.
func (e *Engine) RegisterAction(name string, a Action) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.actions[name] = a
}

// Start launches the worker pool that drains the evaluation job queue.
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
	e.jobs = make(chan job, 1024)
	jobs := e.jobs
	for i := 0; i < workers; i++ {
		go func() {
			for j := range jobs {
				e.runActionRule(j.ctx, j.rule, j.instanceID, j.extra)
				// A fired rule wrote (audit row, promotion, capture) with
				// no client waiting: the job is the unit of work, so it
				// commits. Nothing fired, nothing outstanding, no fsync.
				if e.reg != nil {
					_ = e.reg.Commit(j.ctx) // sticky in the WAL; the next request reports it
				}
				e.pending.Done()
			}
		}()
	}
}

// Stop drains outstanding jobs and stops the workers.
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		return
	}
	e.started = false
	jobs := e.jobs
	e.jobs = nil
	e.mu.Unlock()
	e.pending.Wait()
	close(jobs)
}

// Flush blocks until every queued job has been processed.
func (e *Engine) Flush() { e.pending.Wait() }

// --- event trigger (paper Fig. 8, Client 2) ---

// MetricUpdated notifies the engine that an instance gained a metric
// measurement. Every active action rule in scope that watches metrics is
// re-evaluated against that instance — asynchronously when the engine is
// started, inline otherwise.
func (e *Engine) MetricUpdated(instanceID uuid.UUID) {
	e.MetricUpdatedCtx(context.Background(), instanceID)
}

// MetricUpdatedCtx is MetricUpdated carrying the triggering request's
// trace lineage, so async rule evaluations show up as child spans of the
// metric insert that caused them.
func (e *Engine) MetricUpdatedCtx(ctx context.Context, instanceID uuid.UUID) {
	e.trigger(ctx, instanceID, nil, "metrics")
}

// MetadataUpdated notifies the engine that an instance's metadata changed;
// action rules watching any of the named fields re-evaluate.
func (e *Engine) MetadataUpdated(instanceID uuid.UUID, fields ...string) {
	e.MetadataUpdatedCtx(context.Background(), instanceID, fields...)
}

// MetadataUpdatedCtx is MetadataUpdated with trace lineage.
func (e *Engine) MetadataUpdatedCtx(ctx context.Context, instanceID uuid.UUID, fields ...string) {
	e.trigger(ctx, instanceID, nil, fields...)
}

// Event is the one entry for everything a monitor publishes — health
// drift and skew, SLO burns and recoveries, profile regressions (it is an
// obs.EventFunc). Action rules in scope that watch the identifier ev.Kind
// re-evaluate with a variable of that name holding ev.Fields plus the
// event name, so a rule can say e.g.
//
//	when: 'health.event == "drift" && health.psi > 0.25'
//	when: 'slo.event == "burn" && slo.burn_fast > 14'
//	when: 'profile.event == "regression" && profile.factor > 3'
//
// and close the paper's detect → retrain loop automatically. Rules
// execute against an instance environment, so an event scoped to a
// namespace or a model that names no instance (a namespace-level burn, a
// model nobody serves, a health status change) is ignored. A
// process-level event — no scope at all, as for a hot function — is
// evaluated with uuid.Nil and a minimal environment.
func (e *Engine) Event(ctx context.Context, ev obs.Event) {
	if ev.Instance == uuid.Nil && (ev.Namespace != "" || ev.ModelID != "") {
		return
	}
	payload := make(map[string]any, len(ev.Fields)+1)
	for k, v := range ev.Fields {
		payload[k] = v
	}
	payload["event"] = ev.Name
	e.trigger(ctx, ev.Instance, map[string]any{ev.Kind: payload}, ev.Kind)
}

// trigger is the event trigger itself: count it, then hand every active
// action rule in scope that watches one of idents to dispatch. extra is
// added to the rule's evaluation environment (nil for metric and metadata
// updates).
func (e *Engine) trigger(ctx context.Context, instanceID uuid.UUID, extra map[string]any, idents ...string) {
	e.mu.Lock()
	e.stats.EventsTriggered++
	e.mu.Unlock()
	e.mx.events.Inc()
	for _, rule := range e.repo.Active() {
		if rule.Kind != KindAction || !e.inScope(rule) {
			continue
		}
		for _, id := range idents {
			if watches(rule, id) {
				e.dispatch(ctx, rule, instanceID, extra)
				break
			}
		}
	}
}

func watches(rule *Rule, field string) bool {
	for _, id := range rule.WatchedIdents() {
		if id == field {
			return true
		}
	}
	return false
}

func (e *Engine) dispatch(ctx context.Context, rule *Rule, instanceID uuid.UUID, extra map[string]any) {
	e.mu.Lock()
	started, jobs := e.started, e.jobs
	if started {
		e.pending.Add(1)
	}
	e.mu.Unlock()
	if started {
		jobs <- job{ctx: trace.Detach(ctx), rule: rule, instanceID: instanceID, extra: extra}
		return
	}
	e.runActionRule(ctx, rule, instanceID, extra)
}

func (e *Engine) inScope(rule *Rule) bool {
	return rule.Environment == "" || rule.Environment == e.Environment
}

// runActionRule evaluates one action rule against one instance and fires
// its callbacks when the condition holds. Evaluation errors (e.g. a rule
// referencing a metric the instance has not reported) mean "condition not
// met", surfaced as a log alert rather than a crash.
func (e *Engine) runActionRule(ctx context.Context, rule *Rule, instanceID uuid.UUID, extra map[string]any) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := trace.Start(ctx, "rules.evaluate")
	if span != nil {
		span.Annotate("rule", rule.UUID)
		span.Annotate("instance", instanceID.String())
	}
	var (
		env *expr.Env
		in  *core.Instance
		err error
	)
	if instanceID == uuid.Nil {
		// Process-level events (profile regressions) have no instance;
		// give the rule an empty metrics map so metric references fail
		// soft the same way a missing metric does.
		env = &expr.Env{Vars: map[string]any{"metrics": map[string]any{}}}
	} else {
		env, in, err = e.instanceEnv(ctx, instanceID)
	}
	if err == nil {
		for k, v := range extra {
			env.Vars[k] = v
		}
	}
	if err != nil {
		e.recordAlert(Alert{Time: e.clk.Now(), RuleUUID: rule.UUID, InstanceID: instanceID,
			Action: "engine", Message: "environment build failed: " + err.Error()})
		span.EndErr(err)
		return
	}
	ok, evalErr := e.condition(rule, env)
	e.mu.Lock()
	e.stats.Evaluations++
	if ok {
		e.stats.Matches++
	}
	e.mu.Unlock()
	e.mx.evaluations.Inc()
	if ok {
		e.mx.matches.Inc()
	}
	if span != nil {
		span.Annotate("matched", fmt.Sprintf("%t", ok))
	}
	if evalErr != nil {
		var ee *expr.EvalError
		if !errors.As(evalErr, &ee) {
			e.recordAlert(Alert{Time: e.clk.Now(), RuleUUID: rule.UUID, InstanceID: instanceID,
				Action: "engine", Message: "condition error: " + evalErr.Error()})
			span.EndErr(evalErr)
			return
		}
		span.End()
		return
	}
	if !ok {
		span.End()
		return
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
			e.mu.Lock()
			e.stats.ActionErrors++
			e.mu.Unlock()
			e.mx.actionErrors.Inc()
			e.recordAlert(Alert{Time: e.clk.Now(), RuleUUID: rule.UUID, InstanceID: instanceID,
				Action: ref.Action, Message: "unknown action"})
			aspan.Fail("unknown action")
			aspan.End()
			continue
		}
		err := a(ac)
		aspan.EndErr(err)
		e.mu.Lock()
		e.stats.ActionsRun++
		if err != nil {
			e.stats.ActionErrors++
		}
		e.mu.Unlock()
		e.mx.actionsRun.Inc()
		if err != nil {
			e.mx.actionErrors.Inc()
		}
		if err != nil {
			failed = append(failed, ref.Action)
			e.recordAlert(Alert{Time: e.clk.Now(), RuleUUID: rule.UUID, InstanceID: instanceID,
				Action: ref.Action, Message: "action failed: " + err.Error()})
		} else {
			fired = append(fired, ref.Action)
		}
	}
	e.auditFiring(ctx, rule, in, instanceID, fired, failed)
	span.End()
}

// auditFiring records a rule firing on the matched instance's audit
// timeline, with the owning model joined through model_id.
func (e *Engine) auditFiring(ctx context.Context, rule *Rule, in *core.Instance, instanceID uuid.UUID, fired, failed []string) {
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
		EntityID:   instanceID.String(),
		Detail:     fmt.Sprintf("rule=%s (%s) %s", rule.Name, rule.UUID, detail),
	}
	if in != nil {
		ev.ModelID = in.ModelID.String()
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
	e.mu.Lock()
	e.stats.SelectionRequests++
	e.mu.Unlock()
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
		e.mu.Lock()
		e.stats.Evaluations++
		if ok {
			e.stats.Matches++
		}
		e.mu.Unlock()
		e.mx.evaluations.Inc()
		if ok {
			e.mx.matches.Inc()
		}
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
	defer e.mu.Unlock()
	return e.stats
}
