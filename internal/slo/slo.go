// Package slo is Gallery's service-level-objective engine: the layer
// that turns raw per-tenant RED telemetry into explicit, continuously
// evaluated service targets.
//
// The paper's thesis is closed-loop lifecycle automation — signals feed
// rules that retrain, deprecate, or roll back. Telemetry alone cannot
// close that loop: nothing in a latency histogram says what "healthy"
// means for a tenant. An Objective does: "99% of the ads namespace's
// requests succeed" or "99% of them finish within 100ms". Objectives are
// declared over /v1/slo (or galleryctl slo), persisted in the relational
// store over the WAL like every other piece of control-plane state, and
// evaluated on a tick against the bounded-cardinality metric vectors the
// HTTP middleware records.
//
// Evaluation uses the multi-window, multi-burn-rate method: an error
// budget of (1 - target) and a burn rate of (bad/total)/(1 - target)
// measured over paired windows — fast (~5m confirmed by ~1h) to page on
// sharp regressions within minutes, slow (~30m confirmed by ~6h) to
// catch slow bleeds. Requiring both windows of a pair keeps one bad
// scrape from paging anyone, and the long window auto-resolves the alert
// once the burn stops. Window arithmetic runs over ring-buffered
// cumulative good/bad counts indexed by evaluator tick, so results
// depend only on the tick sequence — the injectable clock timestamps
// transitions but never drives the math, which is what keeps the
// frozen-clock experiments deterministic.
//
// Breach transitions emit slo.burn / slo.recovered audit events and are
// published through Config.Events; galleryd hands them to the incident
// recorder. Current state is exported as slo_* gauges and
// GET /v1/slo/status.
package slo

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gallery/internal/audit"
	"gallery/internal/clock"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// Table is the objectives table in the metadata store.
const Table = "slo_objectives"

// Actor stamped on audit events the evaluator emits.
const evaluatorActor = "slo-evaluator"

// Kind is what an objective measures.
type Kind string

const (
	// KindAvailability targets a success ratio: good = non-5xx requests.
	KindAvailability Kind = "availability"
	// KindLatency targets a latency quantile: good = requests finishing
	// within LatencyThreshold seconds. The threshold should sit on a
	// histogram bucket bound; between bounds it rounds down.
	KindLatency Kind = "latency"
)

// Sentinel errors, mapped onto HTTP statuses by the server.
var (
	ErrNotFound = errors.New("slo: objective not found")
	ErrBadSpec  = errors.New("slo: bad objective spec")
	// ErrNoSource rejects an objective whose scope this process has no
	// metric source for — a model-scoped objective, or any objective over
	// a source missing its vectors. Accepting it would only ever report
	// no-data.
	ErrNoSource = errors.New("slo: no metric source for objective scope")
)

// Objective is one declared service target over a namespace's whole
// request stream. ModelID is kept so that rows persisted with one replay
// unchanged; no source answers a model scope, so such an objective
// reports no-data and Create refuses a new one.
type Objective struct {
	ID               string
	Namespace        string
	ModelID          string
	Kind             Kind
	Target           float64 // e.g. 0.99; 0 < Target < 1
	LatencyThreshold float64 // seconds; required for KindLatency
	Created          time.Time
}

// scope renders the objective's subject for audit detail lines.
func (o Objective) scope() string {
	if o.ModelID != "" {
		return o.Namespace + "/" + o.ModelID
	}
	return o.Namespace
}

// Source supplies cumulative good/bad counts for an objective. ok=false
// means the source cannot answer for this objective at all (wrong shape),
// which surfaces as no-data rather than a healthy 0-burn.
type Source interface {
	Counts(o Objective) (good, bad int64, ok bool)
}

// SourceFunc adapts a function to Source.
type SourceFunc func(o Objective) (good, bad int64, ok bool)

// Counts implements Source.
func (f SourceFunc) Counts(o Objective) (int64, int64, bool) { return f(o) }

// VecSource reads the namespace RED vectors recorded by httpmw.Wrap, one
// label {namespace}. A nil field, or a model-scoped objective, answers
// ok=false.
type VecSource struct {
	Requests *obs.CounterVec
	Errors   *obs.CounterVec
	Latency  *obs.HistogramVec
}

// Counts implements Source.
func (s VecSource) Counts(o Objective) (int64, int64, bool) {
	if o.ModelID != "" {
		return 0, 0, false
	}
	switch o.Kind {
	case KindLatency:
		if s.Latency == nil {
			return 0, 0, false
		}
		h := s.Latency.Peek(o.Namespace)
		if h == nil {
			return 0, 0, true
		}
		good := h.CountAtOrBelow(o.LatencyThreshold)
		return good, h.Count() - good, true
	default:
		if s.Requests == nil || s.Errors == nil {
			return 0, 0, false
		}
		req := s.Requests.Peek(o.Namespace).Value()
		bad := s.Errors.Peek(o.Namespace).Value()
		return req - bad, bad, true
	}
}

// The two burn-rate window pairs and their thresholds (the multiwindow
// alerting of the SRE workbook): a pair fires when both its short and its
// long window burn at or above its rate. The fast pair exhausts a 30-day
// budget in about 2 days, the slow pair in about 5.
const (
	fastShort = 5 * time.Minute
	fastLong  = time.Hour
	fastBurn  = 14.4
	slowShort = 30 * time.Minute
	slowLong  = 6 * time.Hour
	slowBurn  = 6
	// minSamples is the fewest requests a window must hold before its
	// burn rate counts; below it the window reads 0. When history is
	// shorter than a window, the floor scales up by the truncation
	// factor, so a brief blip right after startup cannot pass for a
	// long-window burn.
	minSamples = 10
)

// Config wires the evaluator. Windows are converted to whole ticks; the
// zero value gets production defaults.
type Config struct {
	// Tick is the evaluation cadence (and ring resolution). Default 15s.
	Tick time.Duration

	Clock clock.Clock
	UUIDs *uuid.Generator
	Obs   *obs.Registry
	Audit *audit.Log
	// Events, when non-nil, receives every breach transition — Kind "slo",
	// Name "burn" or "recovered", naming the namespace and no instance —
	// after its audit record. Evaluate calls it outside the service lock,
	// so a subscriber may call back into Statuses.
	Events obs.EventFunc
}

func (c Config) defaults() Config {
	if c.Tick <= 0 {
		c.Tick = 15 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.UUIDs == nil {
		c.UUIDs = uuid.NewGenerator()
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
	return c
}

// ticks converts a window to whole evaluator ticks, minimum 1.
func (c Config) ticks(d time.Duration) int {
	n := int(d / c.Tick)
	if n < 1 {
		n = 1
	}
	return n
}

// sample is one tick's cumulative totals.
type sample struct{ good, bad int64 }

// state is the evaluator's per-objective memory.
type state struct {
	obj  Objective
	ring []sample // cumulative totals, indexed by tick % len
	n    int      // samples recorded (saturates at len(ring))

	breached   bool
	severity   string // "fast" | "slow" when breached
	burnFast   float64
	burnSlow   float64
	budget     float64
	noData     bool
	lastChange time.Time
}

// push records this tick's cumulative totals.
func (st *state) push(tick int64, s sample) {
	st.ring[tick%int64(len(st.ring))] = s
	if st.n < len(st.ring) {
		st.n++
	}
}

// window returns the good/bad delta over the last k ticks (current tick
// included) and the span actually covered. With less history than k, the
// whole recorded history is the window — partial windows evaluate rather
// than blocking alerts until an hour of uptime accumulates — and the
// caller compensates for the truncation (see the minSamples scaling in
// Evaluate).
func (st *state) window(tick int64, k int) (sample, int) {
	if st.n == 0 {
		return sample{}, 0
	}
	if k > st.n-1 {
		k = st.n - 1
	}
	cur := st.ring[tick%int64(len(st.ring))]
	base := st.ring[(tick-int64(k))%int64(len(st.ring))]
	g, b := cur.good-base.good, cur.bad-base.bad
	// Counter resets (process restart behind the same vector) would read
	// negative; clamp to zero rather than crediting the budget.
	if g < 0 {
		g = 0
	}
	if b < 0 {
		b = 0
	}
	return sample{good: g, bad: b}, k
}

// Status is one objective's current evaluation, served at /v1/slo/status.
type Status struct {
	Objective       Objective
	Breached        bool
	Severity        string
	BurnFast        float64
	BurnSlow        float64
	BudgetRemaining float64
	NoData          bool
	LastChange      time.Time
}

// Service owns objective persistence and evaluation for one process.
type Service struct {
	store *relstore.Store
	src   Source
	cfg   Config

	fastShort, fastLong int // ticks
	slowShort, slowLong int

	mu    sync.Mutex
	objs  map[string]*state
	ticks int64

	stop chan struct{}
	done chan struct{}

	cEvaluations *obs.Counter
	cBurns       *obs.Counter
	cRecoveries  *obs.Counter
	// Per-objective gauges, labelled {slo}.
	gBurnFast, gBurnSlow, gBreached, gBudget *obs.GaugeVec
}

// Open declares the objectives table on store (idempotent over a
// recovered store), loads every persisted objective, and returns a
// Service evaluating them against src.
func Open(store *relstore.Store, src Source, cfg Config) (*Service, error) {
	cfg = cfg.defaults()
	if err := store.CreateTable(schema()); err != nil {
		return nil, err
	}
	s := &Service{
		store:        store,
		src:          src,
		cfg:          cfg,
		fastShort:    cfg.ticks(fastShort),
		fastLong:     cfg.ticks(fastLong),
		slowShort:    cfg.ticks(slowShort),
		slowLong:     cfg.ticks(slowLong),
		objs:         make(map[string]*state),
		cEvaluations: cfg.Obs.Counter("slo_evaluations_total"),
		cBurns:       cfg.Obs.Counter("slo_burn_events_total"),
		cRecoveries:  cfg.Obs.Counter("slo_recovered_events_total"),
		gBurnFast:    cfg.Obs.GaugeVec("slo_burn_rate_fast", sloLabel, 0),
		gBurnSlow:    cfg.Obs.GaugeVec("slo_burn_rate_slow", sloLabel, 0),
		gBreached:    cfg.Obs.GaugeVec("slo_breached", sloLabel, 0),
		gBudget:      cfg.Obs.GaugeVec("slo_error_budget_remaining", sloLabel, 0),
	}
	rows, err := store.Select(context.Background(), relstore.Query{Table: Table})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		o := rowToObjective(r)
		s.objs[o.ID] = s.newState(o)
	}
	return s, nil
}

var sloLabel = []string{"slo"}

// newState sizes the ring to the longest window plus the current tick.
func (s *Service) newState(o Objective) *state {
	return &state{obj: o, ring: make([]sample, s.slowLong+1), budget: 1}
}

// Create validates, persists, and starts evaluating an objective. The
// ID is generated here; the caller's is ignored.
func (s *Service) Create(ctx context.Context, o Objective) (Objective, error) {
	if o.Namespace == "" {
		return Objective{}, fmt.Errorf("%w: namespace required", ErrBadSpec)
	}
	switch o.Kind {
	case KindAvailability:
		if o.LatencyThreshold != 0 {
			return Objective{}, fmt.Errorf("%w: latency_threshold is meaningless for availability", ErrBadSpec)
		}
	case KindLatency:
		if o.LatencyThreshold <= 0 {
			return Objective{}, fmt.Errorf("%w: latency objective needs latency_threshold > 0", ErrBadSpec)
		}
	default:
		return Objective{}, fmt.Errorf("%w: unknown kind %q", ErrBadSpec, o.Kind)
	}
	if o.Target <= 0 || o.Target >= 1 {
		return Objective{}, fmt.Errorf("%w: target must be in (0, 1), got %v", ErrBadSpec, o.Target)
	}
	// Probe the source: ok=false means this process cannot answer for the
	// objective's shape at all (VecSource reports capability, not data),
	// so it would sit at no-data forever. Reject with a pointed error
	// instead. Objectives restored from the store still surface no-data,
	// covering deployments whose wiring changed under persisted state.
	if _, _, ok := s.src.Counts(o); !ok {
		if o.ModelID != "" {
			return Objective{}, fmt.Errorf("%w: model-scoped objectives are not evaluable (predict metrics are recorded by the serving gateway)", ErrNoSource)
		}
		return Objective{}, fmt.Errorf("%w: namespace-scoped objectives are not evaluable in this process", ErrNoSource)
	}
	o.ID = s.cfg.UUIDs.New().String()
	o.Created = s.cfg.Clock.Now()
	if err := s.store.InsertCtx(ctx, Table, objectiveToRow(o)); err != nil {
		return Objective{}, err
	}
	s.mu.Lock()
	s.objs[o.ID] = s.newState(o)
	s.mu.Unlock()
	s.audit(ctx, "", audit.ActionSLOCreate, o, fmt.Sprintf("%s %s target %v", o.Kind, o.scope(), o.Target))
	return o, nil
}

// Delete removes an objective and its gauges. The persistent delete
// happens first: if it fails, the objective stays monitored and
// consistent, rather than dropping out of memory only to resurrect from
// the store on the next restart.
func (s *Service) Delete(ctx context.Context, id string) error {
	s.mu.Lock()
	st, ok := s.objs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err := s.store.Delete(ctx, Table, id); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.objs, id)
	s.mu.Unlock()
	for _, g := range []*obs.GaugeVec{s.gBurnFast, s.gBurnSlow, s.gBreached, s.gBudget} {
		g.Delete(id)
	}
	s.audit(ctx, "", audit.ActionSLODelete, st.obj, st.obj.scope())
	return nil
}

// List returns every objective, oldest first.
func (s *Service) List() []Objective {
	s.mu.Lock()
	out := make([]Objective, 0, len(s.objs))
	for _, st := range s.objs {
		out = append(out, st.obj)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Get returns one objective.
func (s *Service) Get(id string) (Objective, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.objs[id]
	if !ok {
		return Objective{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return st.obj, nil
}

// Statuses returns the current evaluation of every objective, oldest
// objective first.
func (s *Service) Statuses() []Status {
	s.mu.Lock()
	out := make([]Status, 0, len(s.objs))
	for _, st := range s.objs {
		out = append(out, Status{
			Objective:       st.obj,
			Breached:        st.breached,
			Severity:        st.severity,
			BurnFast:        st.burnFast,
			BurnSlow:        st.burnSlow,
			BudgetRemaining: st.budget,
			NoData:          st.noData,
			LastChange:      st.lastChange,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		oi, oj := out[i].Objective, out[j].Objective
		if !oi.Created.Equal(oj.Created) {
			return oi.Created.Before(oj.Created)
		}
		return oi.ID < oj.ID
	})
	return out
}

// transition captures an emit decision made under the lock, delivered
// after it is released (the rules engine and audit log take their own
// locks).
type transition struct {
	obj      Objective
	event    string // "burn" | "recovered"
	severity string
	burnFast float64
	burnSlow float64
	budget   float64
}

// Evaluate runs one tick: read cumulative counts for every objective,
// advance the rings, recompute burn rates, publish gauges, and emit
// breach transitions. Deterministic in the tick sequence; the clock only
// timestamps transitions.
func (s *Service) Evaluate(ctx context.Context) {
	now := s.cfg.Clock.Now()
	var emits []transition

	s.mu.Lock()
	s.ticks++
	tick := s.ticks
	for _, st := range s.objs {
		good, bad, ok := s.src.Counts(st.obj)
		st.noData = !ok
		if !ok {
			continue
		}
		st.push(tick, sample{good: good, bad: bad})

		budget := 1 - st.obj.Target // error budget as a failure ratio
		burn := func(k int) float64 {
			w, span := st.window(tick, k)
			if span == 0 {
				return 0
			}
			total := w.good + w.bad
			// minSamples is calibrated to the full window. When history
			// clamps the window to a shorter span, scale the floor by the
			// truncation factor: without this, both windows of a pair
			// collapse to the same short span just after startup and one
			// minSamples-sized blip counterfeits a confirmed long burn.
			// A genuine outage at real traffic volume still clears the
			// scaled floor within a few ticks.
			need := minSamples * int64(k) / int64(span)
			if total < need {
				return 0
			}
			return (float64(w.bad) / float64(total)) / budget
		}
		fastS, fastL := burn(s.fastShort), burn(s.fastLong)
		slowS, slowL := burn(s.slowShort), burn(s.slowLong)
		st.burnFast = min2(fastS, fastL) // pair fires on its minimum
		st.burnSlow = min2(slowS, slowL)

		wl, _ := st.window(tick, s.slowLong)
		if total := wl.good + wl.bad; total > 0 {
			st.budget = clamp01(1 - (float64(wl.bad)/float64(total))/budget)
		} else {
			st.budget = 1
		}

		fastHit := fastS >= fastBurn && fastL >= fastBurn
		slowHit := slowS >= slowBurn && slowL >= slowBurn
		breached := fastHit || slowHit
		if breached != st.breached {
			st.breached = breached
			st.lastChange = now
			event := "recovered"
			if breached {
				event = "burn"
				st.severity = "fast"
				if !fastHit {
					st.severity = "slow"
				}
			} else {
				st.severity = ""
			}
			emits = append(emits, transition{
				obj:      st.obj,
				event:    event,
				severity: st.severity,
				burnFast: st.burnFast,
				burnSlow: st.burnSlow,
				budget:   st.budget,
			})
		}
		s.publishGauges(st)
	}
	s.mu.Unlock()

	s.cEvaluations.Inc()
	for _, t := range emits {
		s.emit(ctx, t)
	}
	// Transitions wrote audit rows, and maybe an incident capture, with
	// no client waiting: commit them here, after every lock is released.
	// They go through the audit log and the recorder, which a durable
	// process keeps in the same metadata store as the objectives.
	_ = s.store.Commit(ctx) // sticky in the WAL; the next request reports it
}

func (s *Service) publishGauges(st *state) {
	id := st.obj.ID
	s.gBurnFast.With(id).Set(st.burnFast)
	s.gBurnSlow.With(id).Set(st.burnSlow)
	breached := 0.0
	if st.breached {
		breached = 1
	}
	s.gBreached.With(id).Set(breached)
	s.gBudget.With(id).Set(st.budget)
}

// emit records the audit event, then publishes the transition.
func (s *Service) emit(ctx context.Context, t transition) {
	action := audit.ActionSLOBurn
	if t.event == "recovered" {
		s.cRecoveries.Inc()
		action = audit.ActionSLORecovered
	} else {
		s.cBurns.Inc()
	}
	if s.cfg.Audit != nil {
		_ = s.cfg.Audit.Record(audit.WithActor(ctx, evaluatorActor), audit.Event{
			Action:     action,
			EntityType: audit.EntitySLO,
			EntityID:   t.obj.ID,
			Detail: fmt.Sprintf("%s %s %s target %v severity %s burn fast %.2f slow %.2f budget %.3f",
				t.event, t.obj.Kind, t.obj.scope(), t.obj.Target, t.severity, t.burnFast, t.burnSlow, t.budget),
		})
	}
	if s.cfg.Events == nil {
		return
	}
	ev := obs.Event{Kind: "slo", Name: t.event, Namespace: t.obj.Namespace}
	ev.Fields = map[string]any{
		"slo":       t.obj.ID,
		"namespace": t.obj.Namespace,
		"kind":      string(t.obj.Kind),
		"target":    t.obj.Target,
		"severity":  t.severity,
		"burn_fast": t.burnFast,
		"burn_slow": t.burnSlow,
		"budget":    t.budget,
	}
	s.cfg.Events(ctx, ev)
}

// Start launches the evaluation loop at the configured tick. A non-
// positive Tick in Config was already defaulted, so Start always runs;
// embedders that drive Evaluate manually simply don't call it.
func (s *Service) Start() {
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Tick)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.Evaluate(context.Background())
			}
		}
	}()
}

// Stop halts the loop started by Start.
func (s *Service) Stop() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
}

func (s *Service) audit(ctx context.Context, actor, action string, o Objective, detail string) {
	if s.cfg.Audit == nil {
		return
	}
	if actor != "" {
		ctx = audit.WithActor(ctx, actor)
	}
	_ = s.cfg.Audit.Record(ctx, audit.Event{
		Action:     action,
		EntityType: audit.EntitySLO,
		EntityID:   o.ID,
		Detail:     detail,
	})
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func schema() relstore.Schema {
	return relstore.Schema{
		Table: Table,
		Columns: []relstore.Column{
			{Name: "id", Kind: relstore.KindString},
			{Name: "namespace", Kind: relstore.KindString},
			{Name: "model_id", Kind: relstore.KindString},
			{Name: "kind", Kind: relstore.KindString},
			{Name: "target", Kind: relstore.KindFloat},
			{Name: "latency_threshold", Kind: relstore.KindFloat},
			{Name: "created", Kind: relstore.KindTime},
		},
		Key:     "id",
		Indexes: []string{"namespace"},
	}
}

func objectiveToRow(o Objective) relstore.Row {
	return relstore.Row{
		"id":                relstore.String(o.ID),
		"namespace":         relstore.String(o.Namespace),
		"model_id":          relstore.String(o.ModelID),
		"kind":              relstore.String(string(o.Kind)),
		"target":            relstore.Float(o.Target),
		"latency_threshold": relstore.Float(o.LatencyThreshold),
		"created":           relstore.Time(o.Created),
	}
}

func rowToObjective(r relstore.Row) Objective {
	return Objective{
		ID:               r["id"].Str,
		Namespace:        r["namespace"].Str,
		ModelID:          r["model_id"].Str,
		Kind:             Kind(r["kind"].Str),
		Target:           r["target"].Float(),
		LatencyThreshold: r["latency_threshold"].Float(),
		Created:          r["created"].Time(),
	}
}
