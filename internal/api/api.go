// Package api defines the wire types of the Gallery service.
//
// The paper's Gallery exposes a standard set of Thrift APIs with
// language-specific clients (§4.1); this reproduction exposes the same
// operations as JSON over HTTP. These DTOs are shared by the server
// (internal/server) and the Go client (internal/client), playing the role
// of the Thrift IDL.
package api

import (
	"encoding/json"
	"time"

	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/sketch"
)

// Model mirrors core.Model on the wire.
type Model struct {
	ID            string    `json:"id"`
	BaseVersionID string    `json:"base_version_id"`
	Project       string    `json:"project,omitempty"`
	Name          string    `json:"name,omitempty"`
	Owner         string    `json:"owner,omitempty"`
	Team          string    `json:"team,omitempty"`
	Domain        string    `json:"domain,omitempty"`
	Description   string    `json:"description,omitempty"`
	Major         int       `json:"major"`
	PrevModel     string    `json:"prev_model,omitempty"`
	NextModel     string    `json:"next_model,omitempty"`
	Created       time.Time `json:"created"`
	Deprecated    bool      `json:"deprecated"`
}

// RegisterModelRequest creates a model.
type RegisterModelRequest struct {
	BaseVersionID string   `json:"base_version_id"`
	Project       string   `json:"project,omitempty"`
	Name          string   `json:"name,omitempty"`
	Owner         string   `json:"owner,omitempty"`
	Team          string   `json:"team,omitempty"`
	Domain        string   `json:"domain,omitempty"`
	Description   string   `json:"description,omitempty"`
	InitialMajor  int      `json:"initial_major,omitempty"`
	Upstreams     []string `json:"upstreams,omitempty"`
}

// EvolveModelRequest registers a model's successor.
type EvolveModelRequest struct {
	Description string `json:"description,omitempty"`
}

// Instance mirrors core.Instance on the wire.
type Instance struct {
	ID            string    `json:"id"`
	ModelID       string    `json:"model_id"`
	BaseVersionID string    `json:"base_version_id"`
	Project       string    `json:"project,omitempty"`
	Name          string    `json:"name,omitempty"`
	City          string    `json:"city,omitempty"`
	Framework     string    `json:"framework,omitempty"`
	TrainingData  string    `json:"training_data,omitempty"`
	CodePointer   string    `json:"code_pointer,omitempty"`
	Seed          int64     `json:"seed,omitempty"`
	Epochs        int64     `json:"epochs,omitempty"`
	Hyperparams   string    `json:"hyperparams,omitempty"`
	Features      string    `json:"features,omitempty"`
	BlobLocation  string    `json:"blob_location,omitempty"`
	Created       time.Time `json:"created"`
	Deprecated    bool      `json:"deprecated"`
}

// UploadInstanceRequest uploads a trained instance. Blob carries the
// serialized model; encoding/json base64s []byte automatically.
type UploadInstanceRequest struct {
	ModelID      string `json:"model_id"`
	Name         string `json:"name,omitempty"`
	City         string `json:"city,omitempty"`
	Framework    string `json:"framework,omitempty"`
	TrainingData string `json:"training_data,omitempty"`
	CodePointer  string `json:"code_pointer,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	Epochs       int64  `json:"epochs,omitempty"`
	Hyperparams  string `json:"hyperparams,omitempty"`
	Features     string `json:"features,omitempty"`
	Blob         []byte `json:"blob"`
}

// Metric mirrors core.Metric on the wire.
type Metric struct {
	ID         string    `json:"id"`
	InstanceID string    `json:"instance_id"`
	ModelID    string    `json:"model_id"`
	Name       string    `json:"name"`
	Scope      string    `json:"scope"`
	Value      float64   `json:"value"`
	At         time.Time `json:"at"`
}

// InsertMetricRequest records one measurement (paper Listing 4).
type InsertMetricRequest struct {
	Name  string  `json:"metric_name"`
	Scope string  `json:"scope"`
	Value float64 `json:"value"`
}

// InsertMetricsRequest records a whole metrics blob at once.
type InsertMetricsRequest struct {
	Scope  string             `json:"scope"`
	Values map[string]float64 `json:"values"`
}

// SearchConstraint is one field/operator/value predicate, matching the
// shape of paper Listing 5.
type SearchConstraint struct {
	Field    string  `json:"field"`
	Operator string  `json:"operator"`
	Value    string  `json:"value,omitempty"`
	Number   float64 `json:"number,omitempty"`
}

// SearchRequest queries instances. Metadata constraints apply to instance
// fields; metricName/metricValue constraints join against metrics.
type SearchRequest struct {
	Constraints       []SearchConstraint `json:"constraints"`
	IncludeDeprecated bool               `json:"include_deprecated,omitempty"`
	Limit             int                `json:"limit,omitempty"`
}

// VersionRecord mirrors core.VersionRecord on the wire.
type VersionRecord struct {
	ID          string    `json:"id"`
	ModelID     string    `json:"model_id"`
	Major       int       `json:"major"`
	Minor       int       `json:"minor"`
	Version     string    `json:"version"` // "major.minor"
	Cause       string    `json:"cause"`
	InstanceID  string    `json:"instance_id,omitempty"`
	TriggeredBy string    `json:"triggered_by,omitempty"`
	Created     time.Time `json:"created"`
	Production  bool      `json:"production"`
}

// DependencyRequest adds or removes an edge: From depends on To.
type DependencyRequest struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// CommitRulesRequest lands rules in the rule repository.
type CommitRulesRequest struct {
	Author  string            `json:"author"`
	Message string            `json:"message"`
	Upserts []json.RawMessage `json:"upserts,omitempty"`
	Deletes []string          `json:"deletes,omitempty"`
}

// SelectModelRequest triggers a selection rule (paper Fig. 8, Client 1).
type SelectModelRequest struct {
	Filter SearchRequest `json:"filter"`
}

// DriftRequest asks for a drift check.
type DriftRequest struct {
	Metric    string  `json:"metric"`
	Window    int     `json:"window,omitempty"`
	Baseline  int     `json:"baseline,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// DriftReport mirrors core.DriftReport.
type DriftReport struct {
	InstanceID   string  `json:"instance_id"`
	Metric       string  `json:"metric"`
	BaselineMean float64 `json:"baseline_mean"`
	RecentMean   float64 `json:"recent_mean"`
	Degradation  float64 `json:"degradation"`
	Drifted      bool    `json:"drifted"`
	Checked      bool    `json:"checked"`
	Samples      int     `json:"samples"`
}

// SkewRequest asks for a production-skew check.
type SkewRequest struct {
	Metric    string  `json:"metric"`
	Threshold float64 `json:"threshold,omitempty"`
}

// SkewReport mirrors core.SkewReport.
type SkewReport struct {
	InstanceID   string  `json:"instance_id"`
	Metric       string  `json:"metric"`
	OfflineScope string  `json:"offline_scope,omitempty"`
	Offline      float64 `json:"offline"`
	Production   float64 `json:"production"`
	Gap          float64 `json:"gap"`
	Skewed       bool    `json:"skewed"`
	Checked      bool    `json:"checked"`
}

// FleetHealthRequest asks for a project-wide health sweep (§3.6 insights).
type FleetHealthRequest struct {
	Project string       `json:"project"`
	Metric  string       `json:"metric,omitempty"`
	Drift   DriftRequest `json:"drift,omitempty"`
	Skew    SkewRequest  `json:"skew,omitempty"`
	Limit   int          `json:"limit,omitempty"`
}

// InstanceHealth is one instance's row in a fleet health report.
type InstanceHealth struct {
	InstanceID   string      `json:"instance_id"`
	ModelName    string      `json:"model_name,omitempty"`
	City         string      `json:"city,omitempty"`
	Completeness float64     `json:"completeness"`
	HasMetrics   bool        `json:"has_metrics"`
	Drift        DriftReport `json:"drift"`
	Skew         SkewReport  `json:"skew"`
}

// FleetHealth is the sweep summary.
type FleetHealth struct {
	Project        string           `json:"project"`
	Total          int              `json:"total"`
	Drifted        int              `json:"drifted"`
	Skewed         int              `json:"skewed"`
	LowMetadata    int              `json:"low_metadata"`
	MissingMetrics int              `json:"missing_metrics"`
	Instances      []InstanceHealth `json:"instances"`
}

// Alert is one entry of the rule engine's alert log (§4.2: "alerts have
// proven useful ... and gives engineers or ops an opportunity to
// intervene").
type Alert struct {
	Time       time.Time `json:"time"`
	RuleUUID   string    `json:"rule_uuid"`
	InstanceID string    `json:"instance_id,omitempty"`
	Action     string    `json:"action"`
	Message    string    `json:"message,omitempty"`
}

// Error is the uniform error body.
type Error struct {
	Error string `json:"error"`
}

// PredictRequest asks a serving gateway for a one-step-ahead forecast from
// a model's current production instance. The fields mirror
// forecast.Context.
type PredictRequest struct {
	History []float64 `json:"history"`
	Time    time.Time `json:"time,omitempty"`
	Event   bool      `json:"event,omitempty"`
	// PrevEvent is the event flag of the last history point.
	PrevEvent bool `json:"prev_event,omitempty"`
	// HistoryEvents, when present, carries per-point event flags (same
	// length as History).
	HistoryEvents []bool `json:"history_events,omitempty"`
}

// PredictResponse is a gateway's answer: the forecast plus the identity of
// the instance that produced it, so callers can audit exactly which
// promoted artifact served them.
type PredictResponse struct {
	ModelID    string  `json:"model_id"`
	InstanceID string  `json:"instance_id"`
	VersionID  string  `json:"version_id"`
	Version    string  `json:"version"` // "major.minor"
	Learner    string  `json:"learner,omitempty"`
	Value      float64 `json:"value"`
	// Stale reports that the gateway could not confirm this instance is
	// still the production version (galleryd unreachable); the answer
	// comes from the last-known-good model.
	Stale bool `json:"stale,omitempty"`
}

// ServingModel is one loaded model in a gateway's GET /v1/serving status.
type ServingModel struct {
	ModelID    string    `json:"model_id"`
	InstanceID string    `json:"instance_id"`
	VersionID  string    `json:"version_id"`
	Version    string    `json:"version"`
	Learner    string    `json:"learner,omitempty"`
	LoadedAt   time.Time `json:"loaded_at"`
	Swaps      int64     `json:"swaps"`
	Stale      bool      `json:"stale,omitempty"`
}

// HealthObservation is one model's serving-health window as flushed by a
// gateway: request/staleness counts plus distribution sketches of the
// predicted values and request latencies (paper §3.6 made continuous).
type HealthObservation struct {
	ModelID     string          `json:"model_id"`
	InstanceID  string          `json:"instance_id,omitempty"`
	VersionID   string          `json:"version_id,omitempty"`
	Version     string          `json:"version,omitempty"`
	WindowStart time.Time       `json:"window_start"`
	WindowEnd   time.Time       `json:"window_end"`
	Requests    int64           `json:"requests"`
	StaleServes int64           `json:"stale_serves,omitempty"`
	Values      sketch.Snapshot `json:"values"`
	Latency     sketch.Snapshot `json:"latency"`
}

// HealthObservationsRequest is the body of POST /v1/health/observations.
type HealthObservationsRequest struct {
	// Gateway identifies the reporting gateway instance, informational.
	Gateway      string              `json:"gateway,omitempty"`
	Observations []HealthObservation `json:"observations"`
}

// HealthObservationsResponse acknowledges an ingest.
type HealthObservationsResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected,omitempty"`
}

// ModelHealth is one model's continuously-monitored health verdict, as
// served by GET /v1/health/models and /v1/health/models/{id}.
type ModelHealth struct {
	ModelID    string `json:"model_id"`
	InstanceID string `json:"instance_id,omitempty"`
	// Status is "unknown", "healthy", "warning" or "degraded".
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`

	// PSI/KL compare the live predicted-value distribution against the
	// reference captured from the first windows after (re)promotion.
	PSI float64 `json:"psi,omitempty"`
	KL  float64 `json:"kl,omitempty"`

	Windows        int       `json:"windows"`
	ReferenceCount int64     `json:"reference_count,omitempty"`
	LiveCount      int64     `json:"live_count,omitempty"`
	Requests       int64     `json:"requests"`
	StaleServes    int64     `json:"stale_serves,omitempty"`
	RequestRate    float64   `json:"request_rate,omitempty"` // req/s over the last window
	LatencyP95MS   float64   `json:"latency_p95_ms,omitempty"`
	LiveMean       float64   `json:"live_mean,omitempty"`
	ReferenceMean  float64   `json:"reference_mean,omitempty"`
	LastSeen       time.Time `json:"last_seen,omitempty"`

	Drift *DriftReport `json:"drift,omitempty"`
	Skew  *SkewReport  `json:"skew,omitempty"`
}

// AuditEvent is one immutable record of the lifecycle audit trail: who
// did what to which entity, when, with a before→after summary and the
// trace that carried the mutation. Served by GET /v1/audit and
// GET /v1/audit/entity/{id}; ingested from external emitters (serving
// gateways reporting hot swaps) via POST /v1/audit.
type AuditEvent struct {
	ID         string    `json:"id,omitempty"`
	Seq        int64     `json:"seq,omitempty"`
	Time       time.Time `json:"time,omitempty"`
	Actor      string    `json:"actor,omitempty"`
	Action     string    `json:"action"`
	EntityType string    `json:"entity_type"`
	EntityID   string    `json:"entity_id"`
	ModelID    string    `json:"model_id,omitempty"`
	Before     string    `json:"before,omitempty"`
	After      string    `json:"after,omitempty"`
	Detail     string    `json:"detail,omitempty"`
	TraceID    string    `json:"trace_id,omitempty"`
}

// AuditEventsResponse is the body of GET /v1/audit and
// GET /v1/audit/entity/{id}, newest first unless the query says otherwise.
type AuditEventsResponse struct {
	Events []AuditEvent `json:"events"`
}

// RecordAuditRequest is the body of POST /v1/audit: lifecycle events
// witnessed by a process without its own audit store (a serving gateway's
// hot swaps). The server stamps ID, sequence and time on ingest.
type RecordAuditRequest struct {
	Events []AuditEvent `json:"events"`
}

// RecordAuditResponse acknowledges an audit ingest.
type RecordAuditResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected,omitempty"`
}

// DebugLogsResponse is GET /v1/debug/logs: recent structured log lines
// from the process's in-memory ring, oldest first, plus the cursor a
// follower passes back as ?after= to receive only newer lines.
type DebugLogsResponse struct {
	Entries []obslog.Entry `json:"entries"`
	NextSeq uint64         `json:"next_seq"`
}

// Stats summarizes a running Gallery service: registry sizes plus the
// headline observability numbers. The full metric registry (per-route
// histograms, per-table counters) is served at /v1/debug/metrics.
type Stats struct {
	Models    int `json:"models"`
	Instances int `json:"instances"`
	Metrics   int `json:"metrics"`

	Requests         int64   `json:"requests,omitempty"`
	P50LatencyMS     float64 `json:"p50_latency_ms,omitempty"`
	P95LatencyMS     float64 `json:"p95_latency_ms,omitempty"`
	CacheHitRatio    float64 `json:"cache_hit_ratio,omitempty"`
	BlobPuts         int64   `json:"blob_puts,omitempty"`
	BlobGets         int64   `json:"blob_gets,omitempty"`
	RuleEvaluations  int64   `json:"rule_evaluations,omitempty"`
	EngineDispatches int64   `json:"engine_dispatches,omitempty"`
	EngineDrops      int64   `json:"engine_drops,omitempty"`
}

// --- multi-tenant control plane (/v1/tenants) ---

// TenantNamespace is one tenant: its quota configuration and current
// usage. Zero limits mean unlimited.
type TenantNamespace struct {
	Name         string    `json:"name"`
	MaxModels    int64     `json:"max_models,omitempty"`
	MaxBlobBytes int64     `json:"max_blob_bytes,omitempty"`
	RatePerSec   float64   `json:"rate_per_sec,omitempty"`
	Burst        int64     `json:"burst,omitempty"`
	Models       int64     `json:"models"`
	BlobBytes    int64     `json:"blob_bytes"`
	Created      time.Time `json:"created"`
}

// CreateNamespaceRequest is the body of POST /v1/tenants.
type CreateNamespaceRequest struct {
	Name         string  `json:"name"`
	MaxModels    int64   `json:"max_models,omitempty"`
	MaxBlobBytes int64   `json:"max_blob_bytes,omitempty"`
	RatePerSec   float64 `json:"rate_per_sec,omitempty"`
	Burst        int64   `json:"burst,omitempty"`
}

// SetQuotasRequest is the body of POST /v1/tenants/{ns}/quotas. All four
// limits are overwritten together.
type SetQuotasRequest struct {
	MaxModels    int64   `json:"max_models"`
	MaxBlobBytes int64   `json:"max_blob_bytes"`
	RatePerSec   float64 `json:"rate_per_sec"`
	Burst        int64   `json:"burst"`
}

// TenantsResponse is GET /v1/tenants.
type TenantsResponse struct {
	Namespaces []TenantNamespace `json:"namespaces"`
}

// MintTokenRequest is the body of POST /v1/tenants/{ns}/tokens.
type MintTokenRequest struct {
	Name string `json:"name"`
	Role string `json:"role"` // reader | publisher | operator
}

// TenantToken is a credential's metadata; the secret appears only in the
// MintTokenResponse that created it.
type TenantToken struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Namespace string    `json:"namespace"`
	Role      string    `json:"role"`
	Created   time.Time `json:"created"`
	Revoked   bool      `json:"revoked,omitempty"`
}

// MintTokenResponse returns the newly minted credential. Secret is shown
// exactly once — only its hash is stored.
type MintTokenResponse struct {
	Secret string      `json:"secret"`
	Token  TenantToken `json:"token"`
}

// TenantTokensResponse is GET /v1/tenants/{ns}/tokens.
type TenantTokensResponse struct {
	Tokens []TenantToken `json:"tokens"`
}

// SLO mirrors slo.Objective on the wire. Latency thresholds travel in
// milliseconds (the unit operators think in); internally they are
// seconds to match the latency histograms.
type SLO struct {
	ID                 string    `json:"id"`
	Namespace          string    `json:"namespace"`
	ModelID            string    `json:"model_id,omitempty"`
	Kind               string    `json:"kind"` // availability | latency
	Target             float64   `json:"target"`
	LatencyThresholdMS float64   `json:"latency_threshold_ms,omitempty"`
	Created            time.Time `json:"created"`
}

// CreateSLORequest is the body of POST /v1/slo.
type CreateSLORequest struct {
	Namespace          string  `json:"namespace"`
	ModelID            string  `json:"model_id,omitempty"`
	Kind               string  `json:"kind"`
	Target             float64 `json:"target"`
	LatencyThresholdMS float64 `json:"latency_threshold_ms,omitempty"`
}

// SLOList is GET /v1/slo.
type SLOList struct {
	SLOs []SLO `json:"slos"`
}

// SLOStatus is one objective's current evaluation in GET /v1/slo/status.
type SLOStatus struct {
	SLO             SLO       `json:"slo"`
	Breached        bool      `json:"breached"`
	Severity        string    `json:"severity,omitempty"` // fast | slow
	BurnFast        float64   `json:"burn_fast"`
	BurnSlow        float64   `json:"burn_slow"`
	BudgetRemaining float64   `json:"budget_remaining"`
	NoData          bool      `json:"no_data,omitempty"`
	LastChange      time.Time `json:"last_change,omitempty"`
}

// SLOStatusList is GET /v1/slo/status.
type SLOStatusList struct {
	Statuses []SLOStatus `json:"statuses"`
}

// BuildInfo identifies the binary that produced a snapshot: its service
// name, module version, Go toolchain, and process start time. The same
// values back the gallery_build_info / process_start_time_seconds gauges.
type BuildInfo struct {
	Service   string    `json:"service"`
	Version   string    `json:"version"`
	GoVersion string    `json:"go_version"`
	Start     time.Time `json:"start"`
}

// ProcessSnapshot is one daemon's observability state frozen at a point
// in time: the body of GET /v1/debug/bundle and the per-process half of
// an incident bundle. Metrics and traces ride as raw JSON so the snapshot
// is exactly what the debug endpoints would have served.
type ProcessSnapshot struct {
	Service          string          `json:"service"`
	Captured         time.Time       `json:"captured"`
	Build            BuildInfo       `json:"build"`
	Metrics          json.RawMessage `json:"metrics,omitempty"`      // /v1/debug/metrics JSON
	MetricsProm      string          `json:"metrics_prom,omitempty"` // text exposition 0.0.4
	Traces           json.RawMessage `json:"traces,omitempty"`       // {stats, traces}
	Logs             []obslog.Entry  `json:"logs,omitempty"`
	GoroutineProfile string          `json:"goroutine_profile,omitempty"` // pprof debug=1 text
	HeapProfile      string          `json:"heap_profile,omitempty"`
}

// Incident is one flight-recorder capture's index row.
type Incident struct {
	ID        string    `json:"id"`
	Trigger   string    `json:"trigger"` // manual | slo.burn | health.degraded | rule
	Scope     string    `json:"scope"`   // debounce key: model ID, namespace, or "process"
	Namespace string    `json:"namespace,omitempty"`
	ModelID   string    `json:"model_id,omitempty"`
	Reason    string    `json:"reason,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
	Created   time.Time `json:"created"`
	Size      int64     `json:"size,omitempty"` // persisted bundle bytes
	Partial   bool      `json:"partial,omitempty"`
}

// IncidentList is GET /v1/incidents.
type IncidentList struct {
	Incidents []Incident `json:"incidents"`
}

// TriggerIncidentRequest is the body of POST /v1/incidents.
type TriggerIncidentRequest struct {
	Namespace string `json:"namespace,omitempty"`
	ModelID   string `json:"model_id,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

// IncidentBundle is the persisted capture: both daemons' process
// snapshots plus the registry-side verdict state (health, SLO, audit
// tail) implicated by the trigger.
type IncidentBundle struct {
	Incident     Incident         `json:"incident"`
	Registry     ProcessSnapshot  `json:"registry"`
	Gateway      *ProcessSnapshot `json:"gateway,omitempty"`
	GatewayError string           `json:"gateway_error,omitempty"` // set when the pull failed (Partial)
	Health       []ModelHealth    `json:"health,omitempty"`
	SLO          []SLOStatus      `json:"slo,omitempty"`
	Audit        []AuditEvent     `json:"audit,omitempty"`
}

// IncidentDetail is GET /v1/incidents/{id}.
type IncidentDetail struct {
	Incident Incident       `json:"incident"`
	Bundle   IncidentBundle `json:"bundle"`
}
