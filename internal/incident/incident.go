// Package incident is the flight recorder: when something pages — an SLO
// burn, a model-health degradation, a standing rule, or an operator's
// manual trigger — it freezes the process's full observability state into
// a durable incident bundle before the bounded in-memory rings rotate the
// evidence away. A bundle holds both daemons' metric snapshots (JSON and
// Prometheus text), trace- and log-ring tails, the audit tail for the
// implicated entity, health and SLO verdicts, goroutine and heap
// profiles, and build info. The bundle blob rides the existing
// blobstore/DAL write ordering (blob first, pinned, then the index row),
// and the `incidents` index row replays out of the metadata WAL, so a
// capture survives a daemon restart.
//
// Captures are debounced per scope — a token-bucket of one capture per
// scope per five minutes — so a burn storm cannot flood the blob
// store, and are cross-process: the registry daemon pulls the implicated
// gateway's snapshot over GET /v1/debug/bundle with a bounded timeout,
// marking the bundle partial if the gateway is the thing that's down.
package incident

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/clock"
	"gallery/internal/dal"
	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/slo"
	"gallery/internal/uuid"
)

// Table is the relstore table indexing persisted bundles.
const Table = "incidents"

// The recorder's fixed bounds.
const (
	// keepBundles bounds persisted bundles; the oldest are pruned (index
	// row and blob) as new captures land.
	keepBundles = 32
	// debounce is the per-scope minimum interval between captures (token
	// bucket of one).
	debounce = 5 * time.Minute
	// gatewayTimeout bounds the gateway pull; past it the bundle is
	// marked partial rather than blocked.
	gatewayTimeout = 2 * time.Second
	// The tails each bundle section holds.
	logTail   = 256
	traceTail = 64
	auditTail = 64
)

// maxProfileBytes bounds each embedded pprof text profile so one huge
// goroutine dump cannot bloat a bundle past reason.
const maxProfileBytes = 512 << 10

// maxGatewayBody bounds the cross-process snapshot read.
const maxGatewayBody = 8 << 20

// ErrNotFound reports an unknown incident id.
var ErrNotFound = errors.New("incident: not found")

// ErrSuppressed reports a trigger swallowed by the per-scope debounce —
// the caller's scope was captured too recently.
var ErrSuppressed = errors.New("incident: capture suppressed")

// Trigger describes why a capture is being asked for. Scope (the
// debounce key and blast-radius label) is the most specific implicated
// entity: the model when one is named, else the namespace, else the
// whole process.
type Trigger struct {
	Kind      string // manual | slo.burn | health.degraded | rule
	Namespace string
	ModelID   string
	Reason    string
	TraceID   string
}

// Scope is the debounce key the trigger lands on.
func (t Trigger) Scope() string {
	switch {
	case t.ModelID != "":
		return t.ModelID
	case t.Namespace != "":
		return t.Namespace
	}
	return "process"
}

// HealthLister supplies the bundle's model-health section;
// *health.Monitor satisfies it.
type HealthLister interface {
	List() []api.ModelHealth
}

// SLOStatuser supplies the bundle's SLO section; *slo.Service satisfies
// it.
type SLOStatuser interface {
	Statuses() []slo.Status
}

// Config wires a Recorder into one process.
type Config struct {
	// Obs is the registry snapshotted into bundles; also home of the
	// incident_* counters. nil uses obs.Default.
	Obs *obs.Registry
	// Tracer's completed-trace ring becomes the bundle's trace tail; may
	// be nil.
	Tracer *trace.Tracer
	// Logs is the structured-log ring tailed into bundles; may be nil.
	Logs *obslog.Ring
	// Audit supplies the implicated entity's audit tail; may be nil.
	Audit *audit.Log
	// Health and SLO supply verdict sections; either may be nil (or bound
	// later via BindHealth/BindSLO, breaking the construction cycle with
	// components that want the recorder as their event sink).
	Health HealthLister
	SLO    SLOStatuser

	// Gateway is the serving gateway's base URL for the cross-process
	// half of a bundle; empty skips the pull.
	Gateway string
	// GatewayToken authenticates the pull when the gateway runs -auth.
	GatewayToken string

	Clock clock.Clock
	UUIDs *uuid.Generator
}

// Recorder captures incident bundles. All methods are safe for
// concurrent use; captures themselves are serialized. The recorder sits
// entirely off the request hot paths — triggers arrive from evaluator
// transitions, rule actions, and the manual endpoint — so an idle
// recorder costs the predict path nothing.
type Recorder struct {
	d   *dal.DAL
	cfg Config

	cCaptures   *obs.Counter // incident_captures_total
	cSuppressed *obs.Counter // incident_suppressed_total
	cErrors     *obs.Counter // incident_errors_total
	cPruned     *obs.Counter // incident_pruned_total

	mu     sync.Mutex // guards lastAt and serializes captures
	lastAt map[string]time.Time
}

// Open readies the incidents table over the store behind d and returns a
// Recorder. Existing index rows replay out of the WAL with the rest of
// the metadata, so List/Get see pre-restart captures immediately.
func Open(d *dal.DAL, cfg Config) (*Recorder, error) {
	if cfg.Obs == nil {
		cfg.Obs = obs.Default
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.UUIDs == nil {
		cfg.UUIDs = uuid.NewGenerator()
	}
	if err := d.Meta().CreateTable(schema()); err != nil {
		return nil, fmt.Errorf("incident: create table: %w", err)
	}
	return &Recorder{
		d:           d,
		cfg:         cfg,
		cCaptures:   cfg.Obs.Counter("incident_captures_total"),
		cSuppressed: cfg.Obs.Counter("incident_suppressed_total"),
		cErrors:     cfg.Obs.Counter("incident_errors_total"),
		cPruned:     cfg.Obs.Counter("incident_pruned_total"),
		lastAt:      make(map[string]time.Time),
	}, nil
}

// BindHealth attaches the health section source after construction —
// the monitor wants the recorder as its transition sink, so one of the
// two must bind late.
func (r *Recorder) BindHealth(h HealthLister) {
	r.mu.Lock()
	r.cfg.Health = h
	r.mu.Unlock()
}

// BindSLO attaches the SLO section source after construction, for the
// same cycle reason as BindHealth.
func (r *Recorder) BindSLO(s SLOStatuser) {
	r.mu.Lock()
	r.cfg.SLO = s
	r.mu.Unlock()
}

// Trigger asks for a capture. The per-scope debounce is checked first —
// a storm of burn events on one scope yields exactly one bundle per
// debounce interval, the rest returning ErrSuppressed. A failed capture
// keeps its token spent: a persistently failing trigger must not turn
// the debounce into a retry hammer against the blob store.
func (r *Recorder) Trigger(ctx context.Context, t Trigger) (api.Incident, error) {
	now := r.cfg.Clock.Now()
	scope := t.Scope()

	r.mu.Lock()
	if last, ok := r.lastAt[scope]; ok && now.Sub(last) < debounce {
		r.mu.Unlock()
		r.cSuppressed.Inc()
		return api.Incident{}, fmt.Errorf("%w: scope %q captured %s ago (debounce %s)",
			ErrSuppressed, scope, now.Sub(last), debounce)
	}
	r.lastAt[scope] = now
	health, sloSrc := r.cfg.Health, r.cfg.SLO
	r.mu.Unlock()

	inc, err := r.capture(ctx, t, now, health, sloSrc)
	if err != nil {
		r.cErrors.Inc()
		return api.Incident{}, err
	}
	r.cCaptures.Inc()
	return inc, nil
}

// capture assembles and persists one bundle.
func (r *Recorder) capture(ctx context.Context, t Trigger, now time.Time, health HealthLister, sloSrc SLOStatuser) (api.Incident, error) {
	inc := api.Incident{
		ID:        r.cfg.UUIDs.New().String(),
		Trigger:   t.Kind,
		Scope:     t.Scope(),
		Namespace: t.Namespace,
		ModelID:   t.ModelID,
		Reason:    t.Reason,
		TraceID:   t.TraceID,
		Created:   now,
	}
	if inc.TraceID == "" {
		inc.TraceID = trace.FromContext(ctx).TraceIDString()
	}

	b := api.IncidentBundle{
		Registry: SnapshotProcess("galleryd", r.cfg.Obs, r.cfg.Tracer, r.cfg.Logs, now),
	}
	if r.cfg.Gateway != "" {
		gs, err := r.fetchGateway(ctx)
		if err != nil {
			inc.Partial = true
			b.GatewayError = err.Error()
		} else {
			b.Gateway = &gs
		}
	}
	if health != nil {
		b.Health = health.List()
	}
	if sloSrc != nil {
		for _, st := range sloSrc.Statuses() {
			b.SLO = append(b.SLO, sloStatusAPI(st))
		}
	}
	if r.cfg.Audit != nil {
		if evs, err := r.cfg.Audit.Events(r.auditQuery(t)); err == nil {
			b.Audit = auditAPI(evs)
		}
	}
	b.Incident = inc // Size is stamped on the index row only

	blob, err := json.Marshal(b)
	if err != nil {
		return api.Incident{}, fmt.Errorf("incident: encode bundle: %w", err)
	}
	inc.Size = int64(len(blob))

	if _, err := r.d.InsertWithBlob(ctx, Table, rowOf(inc), "location", "incident-"+inc.ID, blob); err != nil {
		return api.Incident{}, fmt.Errorf("incident: persist bundle: %w", err)
	}
	r.prune(ctx)
	return inc, nil
}

// auditQuery scopes the bundle's audit tail to the implicated entity:
// the model's joined timeline when one is named, else events naming the
// namespace, else the process-wide tail.
func (r *Recorder) auditQuery(t Trigger) audit.Query {
	q := audit.Query{Limit: auditTail, Desc: true}
	switch {
	case t.ModelID != "":
		q.ModelID = t.ModelID
	case t.Namespace != "":
		q.EntityID = t.Namespace
	}
	return q
}

// fetchGateway pulls the serving gateway's process snapshot with a
// bounded timeout.
func (r *Recorder) fetchGateway(ctx context.Context) (api.ProcessSnapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, gatewayTimeout)
	defer cancel()
	url := strings.TrimRight(r.cfg.Gateway, "/") + "/v1/debug/bundle"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return api.ProcessSnapshot{}, fmt.Errorf("incident: gateway request: %w", err)
	}
	if r.cfg.GatewayToken != "" {
		req.Header.Set("Authorization", "Bearer "+r.cfg.GatewayToken)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return api.ProcessSnapshot{}, fmt.Errorf("incident: gateway pull: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.ProcessSnapshot{}, fmt.Errorf("incident: gateway pull: status %d", resp.StatusCode)
	}
	var ps api.ProcessSnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxGatewayBody)).Decode(&ps); err != nil {
		return api.ProcessSnapshot{}, fmt.Errorf("incident: gateway snapshot: %w", err)
	}
	return ps, nil
}

// prune drops the oldest bundles past the retention bound — index row
// first, then the now-unreferenced blob.
func (r *Recorder) prune(ctx context.Context) {
	rows, err := r.d.Meta().Select(ctx, relstore.Query{
		Table: Table, OrderBy: "created", Desc: true, Offset: keepBundles,
	})
	if err != nil {
		return
	}
	for _, row := range rows {
		if err := r.d.Meta().Delete(ctx, Table, row["id"].Str); err != nil {
			continue
		}
		if loc := row["location"].Str; loc != "" {
			_ = r.d.DeleteBlob(loc)
		}
		r.cPruned.Inc()
	}
}

// List returns incident index rows, newest first. A non-empty namespace
// restricts the listing to that tenant's incidents.
func (r *Recorder) List(namespace string) ([]api.Incident, error) {
	q := relstore.Query{Table: Table, OrderBy: "created", Desc: true}
	if namespace != "" {
		q.Where = []relstore.Constraint{{Field: "namespace", Op: relstore.OpEq, Value: relstore.String(namespace)}}
	}
	rows, err := r.d.Meta().Select(context.Background(), q)
	if err != nil {
		return nil, err
	}
	out := make([]api.Incident, 0, len(rows))
	for _, row := range rows {
		inc, _ := incOf(row)
		out = append(out, inc)
	}
	return out, nil
}

// Get fetches one incident's index row and its persisted bundle.
func (r *Recorder) Get(ctx context.Context, id string) (api.Incident, api.IncidentBundle, error) {
	row, err := r.d.Meta().Get(ctx, Table, id)
	if err != nil {
		if errors.Is(err, relstore.ErrNotFound) {
			return api.Incident{}, api.IncidentBundle{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return api.Incident{}, api.IncidentBundle{}, err
	}
	inc, loc := incOf(row)
	blob, err := r.d.GetBlobCtx(ctx, loc)
	if err != nil {
		return api.Incident{}, api.IncidentBundle{}, fmt.Errorf("incident: fetch bundle %s: %w", id, err)
	}
	var b api.IncidentBundle
	if err := json.Unmarshal(blob, &b); err != nil {
		return api.Incident{}, api.IncidentBundle{}, fmt.Errorf("incident: decode bundle %s: %w", id, err)
	}
	b.Incident = inc // the index row is the source of truth (it carries Size)
	return inc, b, nil
}

// SnapshotProcess freezes one process's observability state: metric
// registry (JSON and Prometheus text), trace-ring tail, log-ring tail,
// goroutine and heap profiles, and build info. It is what the serving gateway serves at
// GET /v1/debug/bundle and what the recorder embeds for its own process.
func SnapshotProcess(service string, reg *obs.Registry, tracer *trace.Tracer, logs *obslog.Ring, now time.Time) api.ProcessSnapshot {
	ps := api.ProcessSnapshot{
		Service:  service,
		Captured: now,
		Build: api.BuildInfo{
			Service:   service,
			Version:   obs.BuildVersion(),
			GoVersion: runtime.Version(),
			Start:     obs.ProcessStart(),
		},
	}
	if reg != nil {
		if js, err := json.Marshal(reg.Snapshot()); err == nil {
			ps.Metrics = js
		}
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err == nil {
			ps.MetricsProm = buf.String()
		}
	}
	if tracer != nil {
		st := tracer.Store()
		if js, err := json.Marshal(map[string]any{
			"stats":  st.Stats(),
			"traces": st.Summaries(traceTail),
		}); err == nil {
			ps.Traces = js
		}
	}
	if logs != nil {
		ps.Logs, _ = logs.Entries(obslog.Filter{Limit: logTail})
	}
	ps.GoroutineProfile = profileText("goroutine")
	ps.HeapProfile = profileText("heap")
	return ps
}

// profileText renders a pprof profile in its debug=1 text form, bounded.
func profileText(name string) string {
	p := pprof.Lookup(name)
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	if buf.Len() > maxProfileBytes {
		buf.Truncate(maxProfileBytes)
	}
	return buf.String()
}

// --- persistence mapping ---

func schema() relstore.Schema {
	return relstore.Schema{
		Table: Table,
		Columns: []relstore.Column{
			{Name: "id", Kind: relstore.KindString},
			{Name: "trigger", Kind: relstore.KindString},
			{Name: "scope", Kind: relstore.KindString},
			{Name: "namespace", Kind: relstore.KindString, Nullable: true},
			{Name: "model_id", Kind: relstore.KindString, Nullable: true},
			{Name: "reason", Kind: relstore.KindString, Nullable: true},
			{Name: "trace_id", Kind: relstore.KindString, Nullable: true},
			{Name: "created", Kind: relstore.KindTime},
			{Name: "size", Kind: relstore.KindInt},
			{Name: "partial", Kind: relstore.KindInt},
			{Name: "location", Kind: relstore.KindString},
		},
		Key:     "id",
		Indexes: []string{"namespace", "scope", "created"},
	}
}

func rowOf(inc api.Incident) relstore.Row {
	partial := int64(0)
	if inc.Partial {
		partial = 1
	}
	return relstore.Row{
		"id":        relstore.String(inc.ID),
		"trigger":   relstore.String(inc.Trigger),
		"scope":     relstore.String(inc.Scope),
		"namespace": relstore.String(inc.Namespace),
		"model_id":  relstore.String(inc.ModelID),
		"reason":    relstore.String(inc.Reason),
		"trace_id":  relstore.String(inc.TraceID),
		"created":   relstore.Time(inc.Created),
		"size":      relstore.Int(inc.Size),
		"partial":   relstore.Int(partial),
	}
}

func incOf(row relstore.Row) (api.Incident, string) {
	return api.Incident{
		ID:        row["id"].Str,
		Trigger:   row["trigger"].Str,
		Scope:     row["scope"].Str,
		Namespace: row["namespace"].Str,
		ModelID:   row["model_id"].Str,
		Reason:    row["reason"].Str,
		TraceID:   row["trace_id"].Str,
		Created:   row["created"].Time(),
		Size:      row["size"].Int(),
		Partial:   row["partial"].Int() != 0,
	}, row["location"].Str
}

func sloStatusAPI(st slo.Status) api.SLOStatus {
	return api.SLOStatus{
		SLO: api.SLO{
			ID:                 st.Objective.ID,
			Namespace:          st.Objective.Namespace,
			ModelID:            st.Objective.ModelID,
			Kind:               string(st.Objective.Kind),
			Target:             st.Objective.Target,
			LatencyThresholdMS: st.Objective.LatencyThreshold * 1000,
			Created:            st.Objective.Created,
		},
		Breached:        st.Breached,
		Severity:        st.Severity,
		BurnFast:        st.BurnFast,
		BurnSlow:        st.BurnSlow,
		BudgetRemaining: st.BudgetRemaining,
		NoData:          st.NoData,
		LastChange:      st.LastChange,
	}
}

func auditAPI(evs []audit.Event) []api.AuditEvent {
	out := make([]api.AuditEvent, len(evs))
	for i, ev := range evs {
		out[i] = api.AuditEvent{
			ID:         ev.ID,
			Seq:        ev.Seq,
			Time:       ev.Time,
			Actor:      ev.Actor,
			Action:     ev.Action,
			EntityType: ev.EntityType,
			EntityID:   ev.EntityID,
			ModelID:    ev.ModelID,
			Before:     ev.Before,
			After:      ev.After,
			Detail:     ev.Detail,
			TraceID:    ev.TraceID,
		}
	}
	return out
}
