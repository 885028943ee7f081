// Package health is Gallery's continuous model-health monitor (paper
// §3.6 made continuous). Serving gateways flush windowed distribution
// sketches of what each model actually predicted (internal/serve →
// POST /v1/health/observations); the monitor persists those windows
// through the DAL, captures a reference distribution from the first
// windows after a model is (re)promoted, and on every evaluation tick
// compares live traffic against that reference with PSI/KL divergence —
// alongside the registry's on-demand CheckDrift/CheckSkew over ingested
// metrics. Each model carries a health status (unknown → healthy →
// warning → degraded) with human-readable reasons, published as obs
// gauges and served at GET /v1/health/models. Degradations emit
// health.drift / health.skew events into the rules engine, closing the
// paper's detect → Given/When/Then → retrain/deprecate loop end to end.
package health

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/obs/sketch"
	"gallery/internal/uuid"
)

// Status is a model's health verdict.
type Status string

// Health statuses, in escalation order.
const (
	StatusUnknown  Status = "unknown"
	StatusHealthy  Status = "healthy"
	StatusWarning  Status = "warning"
	StatusDegraded Status = "degraded"
)

// rank orders statuses for escalation; see raise.
func (s Status) rank() int {
	switch s {
	case StatusHealthy:
		return 1
	case StatusWarning:
		return 2
	case StatusDegraded:
		return 3
	default:
		return 0
	}
}

// raise returns the more severe of two statuses.
func raise(a, b Status) Status {
	if b.rank() > a.rank() {
		return b
	}
	return a
}

// The monitor's fixed operating points.
const (
	// psiWarn and psiDegraded are the conventional moderate and
	// significant population-stability shift levels.
	psiWarn     = 0.1
	psiDegraded = 0.25
	// staleWarnRatio flags a window serving mostly stale answers.
	staleWarnRatio = 0.5
	// keepWindows bounds stored windows per model.
	keepWindows = 48
)

// Config tunes the monitor.
type Config struct {
	// Metric is the production error metric fed to CheckDrift/CheckSkew
	// (default "mape").
	Metric string
	// ReferenceWindows is how many initial windows after a (re)promotion
	// form the reference distribution (default 3).
	ReferenceWindows int
	// LiveWindows is how many recent windows are merged into the live
	// distribution (default 3).
	LiveWindows int
	// MinSamples gates PSI: both sides need at least this many
	// observations before a verdict (default 50).
	MinSamples int64
	// Interval is the evaluation tick (default 30s). Zero uses the
	// default; negative disables the loop (tests call Evaluate).
	Interval time.Duration
	// Obs receives monitor metrics; nil uses obs.Default.
	Obs *obs.Registry
	// Events, when non-nil, receives everything the monitor publishes,
	// Kind "health", after Evaluate has released the monitor lock — so a
	// subscriber may call back into List, as the incident flight recorder
	// does while assembling a bundle's health section. Two shapes:
	//
	//   - every status change, Name = the new status, scoped to the model
	//     with no Instance (Fields from, reasons) — for subscribers
	//     that act on models; the rules engine ignores these;
	//   - "drift" and "skew", once per degradation episode, carrying the
	//     serving Instance and the numeric evidence (psi, kl, degradation,
	//     gap) — the events rules act on.
	Events obs.EventFunc
}

func (c *Config) defaults() {
	if c.Metric == "" {
		c.Metric = "mape"
	}
	if c.ReferenceWindows <= 0 {
		c.ReferenceWindows = 3
	}
	if c.LiveWindows <= 0 {
		c.LiveWindows = 3
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 50
	}
	if c.Interval == 0 {
		c.Interval = 30 * time.Second
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
}

// modelState is everything the monitor knows about one model.
type modelState struct {
	modelID    uuid.UUID
	instanceID uuid.UUID // instance observed serving; reference resets when it changes

	ref        sketch.Snapshot // merged reference distribution
	refWindows int
	live       []sketch.Snapshot // ring of recent value windows
	liveLat    []sketch.Snapshot // ring of recent latency windows

	windows       int
	totalRequests int64
	totalStale    int64
	lastRequests  int64
	lastStale     int64
	lastStart     time.Time
	lastEnd       time.Time

	// verdict, refreshed by Evaluate
	status  Status
	reasons []string
	psi, kl float64
	drift   *core.DriftReport
	skew    *core.SkewReport
	// emitted dedups events per degradation episode; cleared on recovery.
	emitted map[string]bool
}

// resetDistributions forgets reference and live windows — called when the
// serving instance changes, so a new promotion earns a fresh baseline.
func (st *modelState) resetDistributions() {
	st.ref = sketch.Snapshot{}
	st.refWindows = 0
	st.live = nil
	st.liveLat = nil
	st.emitted = nil
}

type monitorMetrics struct {
	windows     *obs.Counter
	rejected    *obs.Counter
	evaluations *obs.Counter
	events      *obs.Counter
	models      *obs.Gauge
	status, psi *obs.GaugeVec // {model}
}

// Monitor ingests gateway observations and maintains per-model health.
type Monitor struct {
	reg *core.Registry
	cfg Config

	mu     sync.Mutex
	models map[uuid.UUID]*modelState

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mx monitorMetrics
}

// New builds a Monitor. Call Start to run its evaluation loop, or drive
// Evaluate directly.
func New(reg *core.Registry, cfg Config) *Monitor {
	cfg.defaults()
	m := &Monitor{
		reg:    reg,
		cfg:    cfg,
		models: make(map[uuid.UUID]*modelState),
		done:   make(chan struct{}),
		mx: monitorMetrics{
			windows:     cfg.Obs.Counter("health_windows_total"),
			rejected:    cfg.Obs.Counter("health_windows_rejected_total"),
			evaluations: cfg.Obs.Counter("health_evaluations_total"),
			events:      cfg.Obs.Counter("health_events_total"),
			models:      cfg.Obs.Gauge("health_models"),
			status:      cfg.Obs.GaugeVec("health_model_status", []string{"model"}, 0),
			psi:         cfg.Obs.GaugeVec("health_model_psi", []string{"model"}, 0),
		},
	}
	return m
}

// Start launches the evaluation loop (unless Interval is negative).
func (m *Monitor) Start() {
	if m.cfg.Interval <= 0 {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-m.done:
				return
			case <-t.C:
				m.Evaluate(context.Background())
			}
		}
	}()
}

// Stop halts the evaluation loop.
func (m *Monitor) Stop() {
	m.closeOnce.Do(func() { close(m.done) })
	m.wg.Wait()
}

// state returns (creating if needed) the tracked state for a model.
// Caller holds m.mu.
func (m *Monitor) state(modelID uuid.UUID) *modelState {
	st, ok := m.models[modelID]
	if !ok {
		st = &modelState{modelID: modelID, status: StatusUnknown}
		m.models[modelID] = st
		m.mx.models.Set(float64(len(m.models)))
	}
	return st
}

// Ingest accepts one gateway flush: every observation is persisted as a
// health window through the DAL and folded into the model's in-memory
// state. Individually malformed observations are counted and skipped
// rather than failing the batch.
func (m *Monitor) Ingest(ctx context.Context, req api.HealthObservationsRequest) (api.HealthObservationsResponse, error) {
	var resp api.HealthObservationsResponse
	for _, o := range req.Observations {
		modelID, err := uuid.Parse(o.ModelID)
		if err != nil || o.Requests < 0 || o.Values.Validate() != nil || o.Latency.Validate() != nil {
			resp.Rejected++
			m.mx.rejected.Inc()
			continue
		}
		w := &core.HealthWindow{
			ModelID:     modelID,
			InstanceID:  parseOrNil(o.InstanceID),
			Gateway:     req.Gateway,
			Start:       o.WindowStart,
			End:         o.WindowEnd,
			Requests:    o.Requests,
			StaleServes: o.StaleServes,
		}
		if b, err := json.Marshal(o.Values); err == nil {
			w.ValuesSketch = string(b)
		}
		if b, err := json.Marshal(o.Latency); err == nil {
			w.LatencySketch = string(b)
		}
		if err := m.reg.InsertHealthWindow(ctx, w); err != nil {
			return resp, err
		}
		if _, err := m.reg.PruneHealthWindows(ctx, modelID, keepWindows); err != nil {
			return resp, err
		}
		m.mu.Lock()
		m.fold(m.state(modelID), w.InstanceID, o)
		m.mu.Unlock()
		resp.Accepted++
		m.mx.windows.Inc()
	}
	return resp, nil
}

// fold merges one observation window into a model's state. Caller holds
// m.mu.
func (m *Monitor) fold(st *modelState, instanceID uuid.UUID, o api.HealthObservation) {
	if !instanceID.IsNil() && instanceID != st.instanceID {
		if !st.instanceID.IsNil() {
			// Hot swap: the new instance's output distribution gets a
			// fresh reference instead of being judged against the old
			// model's shape.
			st.resetDistributions()
		}
		st.instanceID = instanceID
	}
	if st.refWindows < m.cfg.ReferenceWindows {
		if merged, err := st.ref.Merge(o.Values); err == nil {
			st.ref = merged
			st.refWindows++
		}
	} else {
		st.live = appendRing(st.live, o.Values, m.cfg.LiveWindows)
		st.liveLat = appendRing(st.liveLat, o.Latency, m.cfg.LiveWindows)
	}
	st.windows++
	st.totalRequests += o.Requests
	st.totalStale += o.StaleServes
	st.lastRequests = o.Requests
	st.lastStale = o.StaleServes
	st.lastStart = o.WindowStart
	st.lastEnd = o.WindowEnd
}

func appendRing(ring []sketch.Snapshot, s sketch.Snapshot, max int) []sketch.Snapshot {
	ring = append(ring, s)
	if len(ring) > max {
		ring = ring[len(ring)-max:]
	}
	return ring
}

// mergeAll folds a ring of snapshots into one; empty ring yields a zero
// snapshot.
func mergeAll(ring []sketch.Snapshot) sketch.Snapshot {
	var out sketch.Snapshot
	for _, s := range ring {
		if out.Count == 0 {
			out = s
			continue
		}
		if merged, err := out.Merge(s); err == nil {
			out = merged
		}
	}
	return out
}

// Recover rebuilds in-memory state from persisted health windows — called
// once at startup so a galleryd restart does not forget every model's
// reference distribution.
func (m *Monitor) Recover() error {
	ids, err := m.reg.HealthWindowModels()
	if err != nil {
		return err
	}
	for _, id := range ids {
		ws, err := m.reg.HealthWindows(id, keepWindows)
		if err != nil {
			return err
		}
		m.mu.Lock()
		st := m.state(id)
		for _, w := range ws {
			o := api.HealthObservation{
				WindowStart: w.Start,
				WindowEnd:   w.End,
				Requests:    w.Requests,
				StaleServes: w.StaleServes,
			}
			if json.Unmarshal([]byte(w.ValuesSketch), &o.Values) != nil {
				continue
			}
			_ = json.Unmarshal([]byte(w.LatencySketch), &o.Latency)
			m.fold(st, w.InstanceID, o)
		}
		m.mu.Unlock()
	}
	return nil
}

// Evaluate runs one monitoring pass over every tracked model: PSI/KL of
// live vs. reference, the registry's drift/skew checks, status
// transitions, gauge publication, and event emission. Exported so tests
// and experiments run deterministic passes instead of waiting out the
// ticker.
func (m *Monitor) Evaluate(ctx context.Context) {
	m.mx.evaluations.Inc()
	// Events are collected under the lock and published after it is
	// released: a subscriber that snapshots health state calls List, which
	// takes m.mu.
	var events []obs.Event
	m.mu.Lock()
	for _, st := range m.models {
		events = m.evaluateLocked(ctx, st, events)
	}
	m.mu.Unlock()
	if m.cfg.Events != nil {
		for _, ev := range events {
			m.cfg.Events(ctx, ev)
		}
	}
	// The pass wrote audit rows, and maybe an incident capture, with no
	// client waiting: commit them here, after every lock is released.
	_ = m.reg.Commit(ctx) // sticky in the WAL; the next request reports it
}

// evaluateLocked refreshes one model's verdict and appends what it has to
// publish — the status change first, then drift/skew — to events.
func (m *Monitor) evaluateLocked(ctx context.Context, st *modelState, events []obs.Event) []obs.Event {
	live := mergeAll(st.live)

	psiOK := false
	st.psi, st.kl = 0, 0
	if st.refWindows >= m.cfg.ReferenceWindows &&
		st.ref.Count >= m.cfg.MinSamples && live.Count >= m.cfg.MinSamples {
		if psi, err := sketch.PSI(st.ref, live); err == nil {
			kl, _ := sketch.KL(st.ref, live)
			st.psi, st.kl = psi, kl
			psiOK = true
		}
	}

	st.drift, st.skew = nil, nil
	if !st.instanceID.IsNil() {
		// The metric-history checks ride along; errors (unknown instance,
		// no metrics yet) just leave them unchecked.
		if rep, err := m.reg.CheckDrift(st.instanceID, core.DriftConfig{Metric: m.cfg.Metric}); err == nil {
			st.drift = rep
		}
		if rep, err := m.reg.CheckSkew(st.instanceID, core.SkewConfig{Metric: m.cfg.Metric}); err == nil {
			st.skew = rep
		}
	}

	status := StatusUnknown
	var reasons []string
	verdict := false

	if psiOK {
		verdict = true
		switch {
		case st.psi >= psiDegraded:
			status = raise(status, StatusDegraded)
			reasons = append(reasons, fmt.Sprintf(
				"prediction distribution shifted: psi=%.3f >= %.2f", st.psi, psiDegraded))
		case st.psi >= psiWarn:
			status = raise(status, StatusWarning)
			reasons = append(reasons, fmt.Sprintf(
				"prediction distribution drifting: psi=%.3f >= %.2f", st.psi, psiWarn))
		default:
			status = raise(status, StatusHealthy)
		}
	}
	if st.drift != nil && st.drift.Checked {
		verdict = true
		if st.drift.Drifted {
			status = raise(status, StatusDegraded)
			reasons = append(reasons, fmt.Sprintf(
				"production %s degraded %.0f%% vs baseline", st.drift.Metric, st.drift.Degradation*100))
		} else {
			status = raise(status, StatusHealthy)
		}
	}
	if st.skew != nil && st.skew.Checked {
		verdict = true
		if st.skew.Skewed {
			status = raise(status, StatusDegraded)
			reasons = append(reasons, fmt.Sprintf(
				"production %s skewed %.0f%% vs offline", st.skew.Metric, st.skew.Gap*100))
		} else {
			status = raise(status, StatusHealthy)
		}
	}
	if st.lastRequests > 0 {
		staleRatio := float64(st.lastStale) / float64(st.lastRequests)
		if staleRatio >= staleWarnRatio {
			status = raise(status, StatusWarning)
			reasons = append(reasons, fmt.Sprintf(
				"%.0f%% of last window served stale", staleRatio*100))
			verdict = true
		}
	}
	if !verdict {
		status = StatusUnknown
		reasons = append(reasons, fmt.Sprintf(
			"collecting data: %d/%d reference windows, %d live samples",
			st.refWindows, m.cfg.ReferenceWindows, live.Count))
	}
	prev := st.status
	st.status = status
	st.reasons = reasons

	if prev != status {
		if m.reg != nil && m.reg.Audit() != nil {
			_ = m.reg.Audit().Record(audit.WithActor(ctx, "health-monitor"), audit.Event{
				Action:     audit.ActionHealthTransition,
				EntityType: audit.EntityModel,
				EntityID:   st.modelID.String(),
				ModelID:    st.modelID.String(),
				Before:     string(prev),
				After:      string(status),
				Detail:     strings.Join(reasons, "; "),
			})
		}
		events = append(events, obs.Event{
			Kind: "health", Name: string(status), ModelID: st.modelID.String(),
			Fields: map[string]any{"from": string(prev), "reasons": strings.Join(reasons, "; ")},
		})
	}

	m.publishGauges(st)
	return m.appendEpisodeEvents(st, events)
}

// publishGauges mirrors a model's verdict into the obs registry. Status
// is encoded 0=unknown 1=healthy 2=warning 3=degraded.
func (m *Monitor) publishGauges(st *modelState) {
	id := st.modelID.String()
	m.mx.status.With(id).Set(float64(st.status.rank()))
	m.mx.psi.With(id).Set(st.psi)
}

// appendEpisodeEvents raises health drift / skew for the rules engine,
// once per degradation episode; recovery re-arms the emission.
func (m *Monitor) appendEpisodeEvents(st *modelState, events []obs.Event) []obs.Event {
	if m.cfg.Events == nil || st.instanceID.IsNil() {
		return events
	}
	if st.status != StatusDegraded {
		if st.status == StatusHealthy {
			st.emitted = nil
		}
		return events
	}
	if st.emitted == nil {
		st.emitted = make(map[string]bool)
	}
	episode := func(name string, fields map[string]any) {
		st.emitted[name] = true
		m.mx.events.Inc()
		events = append(events, obs.Event{
			Kind: "health", Name: name, ModelID: st.modelID.String(), Instance: st.instanceID, Fields: fields,
		})
	}
	distShift := st.psi >= psiDegraded
	metricDrift := st.drift != nil && st.drift.Checked && st.drift.Drifted
	if distShift || metricDrift {
		if !st.emitted["drift"] {
			fields := map[string]any{"psi": st.psi, "kl": st.kl}
			if metricDrift {
				fields["degradation"] = st.drift.Degradation
			}
			episode("drift", fields)
		}
	}
	if st.skew != nil && st.skew.Checked && st.skew.Skewed && !st.emitted["skew"] {
		episode("skew", map[string]any{"gap": st.skew.Gap, "psi": st.psi})
	}
	return events
}

// ModelHealth reports one model's current verdict.
func (m *Monitor) ModelHealth(modelID string) (api.ModelHealth, bool) {
	id, err := uuid.Parse(modelID)
	if err != nil {
		return api.ModelHealth{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.models[id]
	if !ok {
		return api.ModelHealth{}, false
	}
	return m.renderLocked(st), true
}

// List reports every tracked model's verdict, ordered by model ID.
func (m *Monitor) List() []api.ModelHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]api.ModelHealth, 0, len(m.models))
	for _, st := range m.models {
		out = append(out, m.renderLocked(st))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModelID < out[j].ModelID })
	return out
}

func (m *Monitor) renderLocked(st *modelState) api.ModelHealth {
	live := mergeAll(st.live)
	lat := mergeAll(st.liveLat)
	h := api.ModelHealth{
		ModelID:        st.modelID.String(),
		InstanceID:     uuidOrEmpty(st.instanceID),
		Status:         string(st.status),
		Reasons:        append([]string(nil), st.reasons...),
		PSI:            st.psi,
		KL:             st.kl,
		Windows:        st.windows,
		ReferenceCount: st.ref.Count,
		LiveCount:      live.Count,
		Requests:       st.totalRequests,
		StaleServes:    st.totalStale,
		LiveMean:       live.Mean(),
		ReferenceMean:  st.ref.Mean(),
		LastSeen:       st.lastEnd,
		LatencyP95MS:   lat.Quantile(0.95) * 1000,
	}
	if st.status == "" {
		h.Status = string(StatusUnknown)
	}
	if d := st.lastEnd.Sub(st.lastStart); d > 0 && st.lastRequests > 0 {
		h.RequestRate = float64(st.lastRequests) / d.Seconds()
	}
	if st.drift != nil {
		h.Drift = &api.DriftReport{
			InstanceID:   st.drift.InstanceID.String(),
			Metric:       st.drift.Metric,
			BaselineMean: st.drift.BaselineMean,
			RecentMean:   st.drift.RecentMean,
			Degradation:  st.drift.Degradation,
			Drifted:      st.drift.Drifted,
			Checked:      st.drift.Checked,
			Samples:      st.drift.Samples,
		}
	}
	if st.skew != nil {
		h.Skew = &api.SkewReport{
			InstanceID:   st.skew.InstanceID.String(),
			Metric:       st.skew.Metric,
			OfflineScope: string(st.skew.OfflineScope),
			Offline:      st.skew.Offline,
			Production:   st.skew.Production,
			Gap:          st.skew.Gap,
			Skewed:       st.skew.Skewed,
			Checked:      st.skew.Checked,
		}
	}
	return h
}

func parseOrNil(s string) uuid.UUID {
	if s == "" {
		return uuid.Nil
	}
	u, err := uuid.Parse(s)
	if err != nil {
		return uuid.Nil
	}
	return u
}

func uuidOrEmpty(u uuid.UUID) string {
	if u.IsNil() {
		return ""
	}
	return u.String()
}
