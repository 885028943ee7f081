// Package client is the Go client for the Gallery service — the
// reproduction's equivalent of the paper's language-specific Thrift
// clients (§4.1). Every method maps to one service call.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"gallery/internal/api"
	"gallery/internal/obs/profile"
	"gallery/internal/obs/trace"
)

// Options tunes a Client.
type Options struct {
	// HTTP is the underlying transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// Retries bounds re-attempts after the first try for transient
	// failures: dial errors (the request never left this process, so any
	// method is safe to resend), and — for idempotent GETs only — other
	// connection errors and 5xx responses. 0 disables retry entirely.
	Retries int
	// RetryBase is the first backoff delay (default 50ms); each further
	// attempt doubles it, capped at RetryMax (default 2s). The actual
	// sleep is jittered uniformly over [delay/2, delay] so a fleet of
	// clients recovering together does not thunder in lockstep.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Sleep replaces time.Sleep between attempts; tests inject a recorder.
	Sleep func(time.Duration)
	// Actor, when set, is sent as the X-Gallery-Actor header on every
	// request, naming this caller in the service's lifecycle audit trail.
	// Ignored by servers running with auth enabled, where the verified
	// Token identity wins.
	Actor string
	// Token, when set, is sent as `Authorization: Bearer <Token>` on every
	// request — the credential for servers running the multi-tenant
	// control plane.
	Token string
}

// Client talks to one Gallery service endpoint.
type Client struct {
	base string
	http *http.Client
	opts Options
}

// New returns a client for the service at base (e.g.
// "http://localhost:8440"). httpClient may be nil for the default.
func New(base string, httpClient *http.Client) *Client {
	return NewWith(base, Options{HTTP: httpClient})
}

// NewWith returns a client with explicit Options.
func NewWith(base string, opts Options) *Client {
	if opts.HTTP == nil {
		opts.HTTP = http.DefaultClient
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 50 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 2 * time.Second
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	return &Client{base: base, http: opts.HTTP, opts: opts}
}

// APIError carries the service's error body and status code.
type APIError struct {
	Status int
	Msg    string
	// RetryAfter is the server's Retry-After hint on a 429 (zero when the
	// server sent none); the retry loop honors it over its own backoff.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gallery: %d: %s", e.Status, e.Msg)
}

// do issues one request with bounded retry; out may be nil for statusless
// calls.
func (c *Client) do(method, path string, in, out any) error {
	return c.doCtx(context.Background(), method, path, in, out)
}

// doCtx is do carrying a caller context. When ctx holds an active span,
// every attempt becomes its own child span (annotated with the attempt
// number and the backoff slept before it) and the request carries a W3C
// traceparent header, so a traced server joins the caller's trace across
// the process boundary.
func (c *Client) doCtx(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		payload = b
	}
	var backoff time.Duration
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, in != nil, payload, out, attempt, backoff)
		if err == nil {
			return nil
		}
		if attempt >= c.opts.Retries || !retryable(method, err) {
			return err
		}
		backoff = c.backoff(attempt)
		// A rate-limited server told us when capacity returns; sleeping
		// less would burn an attempt on a guaranteed 429. Honor the hint
		// (still jittered so a capped fleet does not re-arrive in lockstep,
		// still bounded by RetryMax like every other backoff).
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > backoff {
			backoff = apiErr.RetryAfter + rand.N(apiErr.RetryAfter/4+1)
			if backoff > c.opts.RetryMax {
				backoff = c.opts.RetryMax
			}
		}
		c.opts.Sleep(backoff)
	}
}

// once issues exactly one HTTP round trip.
func (c *Client) once(ctx context.Context, method, path string, hasBody bool, payload []byte, out any, attempt int, backoff time.Duration) (err error) {
	_, span := trace.Start(ctx, "client.request")
	if span != nil {
		span.Annotate("http.method", method)
		span.Annotate("http.path", path)
		span.AnnotateInt("attempt", int64(attempt))
		if backoff > 0 {
			span.AnnotateDuration("backoff", backoff)
		}
		defer func() { span.EndErr(err) }()
	}
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	// A caller's deadline bounds the round trip. Its cancellation is not
	// passed down: a gateway load is shared by every request waiting on
	// it, and the one that gave up must not fail the rest.
	if d, ok := ctx.Deadline(); ok {
		dctx, cancel := context.WithDeadline(context.WithoutCancel(ctx), d)
		defer cancel()
		req = req.WithContext(dctx)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.opts.Actor != "" {
		req.Header.Set("X-Gallery-Actor", c.opts.Actor)
	}
	if c.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.Token)
	}
	if span != nil {
		req.Header.Set("traceparent", span.Traceparent())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if span != nil {
		span.AnnotateInt("http.status", int64(resp.StatusCode))
	}
	if resp.StatusCode >= 400 {
		apiErr := &APIError{Status: resp.StatusCode, Msg: string(data)}
		var e api.Error
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			apiErr.Msg = e.Error
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if out != nil {
		if raw, ok := out.(*[]byte); ok {
			*raw = data
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decode response: %w", err)
		}
	}
	return nil
}

// retryable decides whether a failed attempt may be resent. Dial errors
// are safe for every method (no bytes reached the server). Anything else —
// a connection dropped mid-flight, a 5xx — is only safe when the request
// is an idempotent GET; a resent POST could double-apply.
func retryable(method string, err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		// 429 was rejected before any handler ran, so resending is safe
		// for every method.
		if apiErr.Status == http.StatusTooManyRequests {
			return true
		}
		return method == http.MethodGet && apiErr.Status >= 500
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) && opErr.Op == "dial" {
		return true
	}
	var urlErr *url.Error
	if errors.As(err, &urlErr) || errors.As(err, &opErr) || errors.Is(err, io.ErrUnexpectedEOF) {
		return method == http.MethodGet
	}
	// Anything else (encode/decode failures, bad requests) is
	// deterministic; retrying cannot help.
	return false
}

// backoff returns the jittered exponential delay before re-attempt n+1.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.RetryBase
	for i := 0; i < attempt && d < c.opts.RetryMax; i++ {
		d *= 2
	}
	if d > c.opts.RetryMax {
		d = c.opts.RetryMax
	}
	half := d / 2
	return half + rand.N(half+1)
}

// RegisterModel creates a model.
func (c *Client) RegisterModel(req api.RegisterModelRequest) (api.Model, error) {
	var m api.Model
	err := c.do("POST", "/v1/models", req, &m)
	return m, err
}

// GetModel fetches a model by id.
func (c *Client) GetModel(id string) (api.Model, error) {
	var m api.Model
	err := c.do("GET", "/v1/models/"+id, nil, &m)
	return m, err
}

// ModelsByBase lists model records under a base version id.
func (c *Client) ModelsByBase(base string) ([]api.Model, error) {
	var ms []api.Model
	err := c.do("GET", "/v1/models?base_version_id="+url.QueryEscape(base), nil, &ms)
	return ms, err
}

// EvolveModel registers a model's successor.
func (c *Client) EvolveModel(id, description string) (api.Model, error) {
	var m api.Model
	err := c.do("POST", "/v1/models/"+id+"/evolve", api.EvolveModelRequest{Description: description}, &m)
	return m, err
}

// Evolution returns a model's prev/next chain.
func (c *Client) Evolution(id string) ([]api.Model, error) {
	var ms []api.Model
	err := c.do("GET", "/v1/models/"+id+"/evolution", nil, &ms)
	return ms, err
}

// DeprecateModel flags a model.
func (c *Client) DeprecateModel(id string) error {
	return c.do("POST", "/v1/models/"+id+"/deprecate", struct{}{}, nil)
}

// VersionHistory returns a model's version records.
func (c *Client) VersionHistory(id string) ([]api.VersionRecord, error) {
	var vs []api.VersionRecord
	err := c.do("GET", "/v1/models/"+id+"/versions", nil, &vs)
	return vs, err
}

// ProductionVersion returns a model's promoted version.
func (c *Client) ProductionVersion(id string) (api.VersionRecord, error) {
	return c.ProductionVersionCtx(context.Background(), id)
}

// ProductionVersionCtx is ProductionVersion with trace propagation.
func (c *Client) ProductionVersionCtx(ctx context.Context, id string) (api.VersionRecord, error) {
	var v api.VersionRecord
	err := c.doCtx(ctx, "GET", "/v1/models/"+id+"/production", nil, &v)
	return v, err
}

// Promote makes a version the production version of its model.
func (c *Client) Promote(versionID string) error {
	return c.do("POST", "/v1/versions/"+versionID+"/promote", struct{}{}, nil)
}

// PromoteInstance promotes the version record an instance realizes — the
// remote form of the rule engine's deploy callback.
func (c *Client) PromoteInstance(instanceID string) error {
	return c.do("POST", "/v1/instances/"+instanceID+"/promote", struct{}{}, nil)
}

// Predict asks a serving gateway (a galleryserve endpoint, not galleryd)
// for a forecast from a model's production instance.
func (c *Client) Predict(modelID string, req api.PredictRequest) (api.PredictResponse, error) {
	return c.PredictCtx(context.Background(), modelID, req)
}

// PredictCtx is Predict with trace propagation.
func (c *Client) PredictCtx(ctx context.Context, modelID string, req api.PredictRequest) (api.PredictResponse, error) {
	var resp api.PredictResponse
	err := c.doCtx(ctx, "POST", "/v1/predict/"+url.PathEscape(modelID), req, &resp)
	return resp, err
}

// ServingStatus lists the models a serving gateway currently holds loaded.
func (c *Client) ServingStatus() ([]api.ServingModel, error) {
	var out []api.ServingModel
	err := c.do("GET", "/v1/serving", nil, &out)
	return out, err
}

// Upstreams lists direct dependencies of a model.
func (c *Client) Upstreams(id string) ([]string, error) {
	var out []string
	err := c.do("GET", "/v1/models/"+id+"/upstreams", nil, &out)
	return out, err
}

// Downstreams lists direct dependents of a model.
func (c *Client) Downstreams(id string) ([]string, error) {
	var out []string
	err := c.do("GET", "/v1/models/"+id+"/downstreams", nil, &out)
	return out, err
}

// AddDependency records that from depends on to.
func (c *Client) AddDependency(from, to string) error {
	return c.do("POST", "/v1/deps", api.DependencyRequest{From: from, To: to}, nil)
}

// RemoveDependency removes the from→to edge.
func (c *Client) RemoveDependency(from, to string) error {
	return c.do("DELETE", "/v1/deps", api.DependencyRequest{From: from, To: to}, nil)
}

// UploadInstance saves a trained model instance with its blob.
func (c *Client) UploadInstance(req api.UploadInstanceRequest) (api.Instance, error) {
	var in api.Instance
	err := c.do("POST", "/v1/instances", req, &in)
	return in, err
}

// GetInstance fetches instance metadata.
func (c *Client) GetInstance(id string) (api.Instance, error) {
	return c.GetInstanceCtx(context.Background(), id)
}

// GetInstanceCtx is GetInstance with trace propagation.
func (c *Client) GetInstanceCtx(ctx context.Context, id string) (api.Instance, error) {
	var in api.Instance
	err := c.doCtx(ctx, "GET", "/v1/instances/"+id, nil, &in)
	return in, err
}

// FetchBlob downloads an instance's serialized model bytes.
func (c *Client) FetchBlob(id string) ([]byte, error) {
	return c.FetchBlobCtx(context.Background(), id)
}

// FetchBlobCtx is FetchBlob with trace propagation.
func (c *Client) FetchBlobCtx(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.doCtx(ctx, "GET", "/v1/instances/"+id+"/blob", nil, &raw)
	return raw, err
}

// DeprecateInstance flags an instance.
func (c *Client) DeprecateInstance(id string) error {
	return c.do("POST", "/v1/instances/"+id+"/deprecate", struct{}{}, nil)
}

// InsertMetric records one measurement (paper Listing 4).
func (c *Client) InsertMetric(instanceID, name, scope string, value float64) (api.Metric, error) {
	var m api.Metric
	err := c.do("POST", "/v1/instances/"+instanceID+"/metrics",
		api.InsertMetricRequest{Name: name, Scope: scope, Value: value}, &m)
	return m, err
}

// InsertMetrics records a metrics blob.
func (c *Client) InsertMetrics(instanceID, scope string, values map[string]float64) error {
	return c.do("POST", "/v1/instances/"+instanceID+"/metricset",
		api.InsertMetricsRequest{Scope: scope, Values: values}, nil)
}

// InsertMetricsBlob ships a raw "<metric>:<value>" blob (paper §3.3.3).
func (c *Client) InsertMetricsBlob(instanceID, scope string, blob []byte) error {
	req, err := http.NewRequest("POST",
		c.base+"/v1/instances/"+instanceID+"/metricsblob?scope="+url.QueryEscape(scope),
		bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	// This is the one call that bypasses once() (the body is raw text,
	// not JSON), so it must attach the identity headers itself.
	if c.opts.Actor != "" {
		req.Header.Set("X-Gallery-Actor", c.opts.Actor)
	}
	if c.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.Token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(resp.Body)
		var e api.Error
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return &APIError{Status: resp.StatusCode, Msg: e.Error}
		}
		return &APIError{Status: resp.StatusCode, Msg: string(data)}
	}
	return nil
}

// CheckFleetHealth sweeps a project's instances for drift, skew, and
// metadata completeness.
func (c *Client) CheckFleetHealth(req api.FleetHealthRequest) (api.FleetHealth, error) {
	var rep api.FleetHealth
	err := c.do("POST", "/v1/health/fleet", req, &rep)
	return rep, err
}

// MetricSeries fetches measurements of one metric for an instance.
func (c *Client) MetricSeries(instanceID, name, scope string) ([]api.Metric, error) {
	var ms []api.Metric
	err := c.do("GET", "/v1/instances/"+instanceID+"/metrics?name="+url.QueryEscape(name)+
		"&scope="+url.QueryEscape(scope), nil, &ms)
	return ms, err
}

// Search queries instances (paper Listing 5).
func (c *Client) Search(req api.SearchRequest) ([]api.Instance, error) {
	var ins []api.Instance
	err := c.do("POST", "/v1/search", req, &ins)
	return ins, err
}

// Lineage lists instances under a base version id, oldest first.
func (c *Client) Lineage(base string) ([]api.Instance, error) {
	var ins []api.Instance
	err := c.do("GET", "/v1/lineage/"+url.PathEscape(base), nil, &ins)
	return ins, err
}

// Stats reports store sizes and headline observability numbers.
func (c *Client) Stats() (api.Stats, error) {
	var s api.Stats
	err := c.do("GET", "/v1/stats", nil, &s)
	return s, err
}

// DebugMetrics fetches the server's full metric registry snapshot
// (per-route histograms, storage and rule-engine counters) as raw JSON.
func (c *Client) DebugMetrics() (json.RawMessage, error) {
	var raw json.RawMessage
	err := c.do("GET", "/v1/debug/metrics", nil, &raw)
	return raw, err
}

// DebugMetricsProm fetches the same registry in Prometheus text
// exposition format 0.0.4 — the payload a scraper would see.
func (c *Client) DebugMetricsProm() ([]byte, error) {
	var raw []byte
	err := c.do("GET", "/v1/debug/metrics/prom", nil, &raw)
	return raw, err
}

// CreateSLO registers a burn-rate objective with the daemon's SLO
// evaluator. Latency thresholds are expressed in milliseconds on the
// wire.
func (c *Client) CreateSLO(req api.CreateSLORequest) (api.SLO, error) {
	var out api.SLO
	err := c.do("POST", "/v1/slo", req, &out)
	return out, err
}

// ListSLOs returns every configured objective.
func (c *Client) ListSLOs() ([]api.SLO, error) {
	var out api.SLOList
	err := c.do("GET", "/v1/slo", nil, &out)
	return out.SLOs, err
}

// DeleteSLO removes an objective and its published gauges.
func (c *Client) DeleteSLO(id string) error {
	return c.do("DELETE", "/v1/slo/"+url.PathEscape(id), nil, nil)
}

// SLOStatus returns the live burn-rate evaluation for every objective.
func (c *Client) SLOStatus() ([]api.SLOStatus, error) {
	var out api.SLOStatusList
	err := c.do("GET", "/v1/slo/status", nil, &out)
	return out.Statuses, err
}

// TriggerIncident asks the flight recorder for a manual capture.
// A 429 means the scope's debounce window is still open — the evidence
// was already captured moments ago.
func (c *Client) TriggerIncident(req api.TriggerIncidentRequest) (api.Incident, error) {
	var out api.Incident
	err := c.do("POST", "/v1/incidents", req, &out)
	return out, err
}

// ListIncidents returns persisted incident index rows, newest first
// (namespace-scoped under auth).
func (c *Client) ListIncidents() ([]api.Incident, error) {
	var out api.IncidentList
	err := c.do("GET", "/v1/incidents", nil, &out)
	return out.Incidents, err
}

// GetIncident fetches one incident and its full diagnostic bundle.
func (c *Client) GetIncident(id string) (api.IncidentDetail, error) {
	var out api.IncidentDetail
	err := c.do("GET", "/v1/incidents/"+url.PathEscape(id), nil, &out)
	return out, err
}

// DebugProfile fetches the continuous-profiling view: per-process
// top-N function summaries merged across retained windows. merge > 0
// restricts the fold to windows ending within that duration; topN > 0
// bounds functions per summary.
func (c *Client) DebugProfile(merge time.Duration, topN int) (profile.View, error) {
	path := "/v1/debug/profile"
	q := url.Values{}
	if merge > 0 {
		q.Set("merge", merge.String())
	}
	if topN > 0 {
		q.Set("n", strconv.Itoa(topN))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out profile.View
	err := c.do("GET", path, nil, &out)
	return out, err
}

// ExportSpans ships one kept trace's spans to the service's trace buffer
// (POST /v1/debug/traces), where they merge with the spans it recorded
// for the same trace id.
func (c *Client) ExportSpans(ctx context.Context, spans []trace.SpanData) error {
	return c.ship(ctx, "/v1/debug/traces", trace.IngestRequest{Spans: spans})
}

// ExportProfiles ships one profiler cycle's summaries to the service's
// fleet view (POST /v1/debug/profile).
func (c *Client) ExportProfiles(ctx context.Context, process string, summaries []profile.Summary) error {
	return c.ship(ctx, "/v1/debug/profile", profile.IngestRequest{Process: process, Summaries: summaries})
}

// ship posts telemetry (ExportSpans, ExportProfiles, ReportAuditEvent)
// with exactly one attempt, whatever Options.Retries says. Its caller is
// the telemetry shipper's single worker (obs.Shipper): a backoff sleep
// there would hold up every channel queued behind this one.
func (c *Client) ship(ctx context.Context, path string, in any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	return c.once(ctx, "POST", path, true, payload, nil, 0, 0)
}

// DebugTraces lists the newest sampled traces held in the server's ring
// buffer as raw JSON ({"stats": ..., "traces": [...]}). limit <= 0 uses
// the server default.
func (c *Client) DebugTraces(limit int) (json.RawMessage, error) {
	path := "/v1/debug/traces"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var raw json.RawMessage
	err := c.do("GET", path, nil, &raw)
	return raw, err
}

// DebugTrace fetches one trace by 32-hex trace id, including its span
// tree, as raw JSON.
func (c *Client) DebugTrace(id string) (json.RawMessage, error) {
	var raw json.RawMessage
	err := c.do("GET", "/v1/debug/traces/"+url.PathEscape(id), nil, &raw)
	return raw, err
}

// CommitRules lands rule changes in the repository.
func (c *Client) CommitRules(author, message string, upserts []json.RawMessage, deletes []string) (string, error) {
	var out map[string]string
	err := c.do("POST", "/v1/rules", api.CommitRulesRequest{
		Author: author, Message: message, Upserts: upserts, Deletes: deletes,
	}, &out)
	return out["hash"], err
}

// ListRules returns the active rule set as raw JSON.
func (c *Client) ListRules() (json.RawMessage, error) {
	var raw []byte
	if err := c.do("GET", "/v1/rules", nil, &raw); err != nil {
		return nil, err
	}
	return json.RawMessage(raw), nil
}

// SelectModel triggers a selection rule and returns the champion.
func (c *Client) SelectModel(ruleID string, filter api.SearchRequest) (api.Instance, error) {
	var in api.Instance
	err := c.do("POST", "/v1/rules/"+ruleID+"/select", api.SelectModelRequest{Filter: filter}, &in)
	return in, err
}

// Alerts returns the rule engine's alert log.
func (c *Client) Alerts() ([]api.Alert, error) {
	var out []api.Alert
	err := c.do("GET", "/v1/alerts", nil, &out)
	return out, err
}

// CheckDrift runs a drift check on an instance.
func (c *Client) CheckDrift(instanceID string, req api.DriftRequest) (api.DriftReport, error) {
	var rep api.DriftReport
	err := c.do("POST", "/v1/instances/"+instanceID+"/drift", req, &rep)
	return rep, err
}

// CheckSkew runs a production-skew check on an instance.
func (c *Client) CheckSkew(instanceID string, req api.SkewRequest) (api.SkewReport, error) {
	var rep api.SkewReport
	err := c.do("POST", "/v1/instances/"+instanceID+"/skew", req, &rep)
	return rep, err
}

// ReportHealthObservations ships a batch of gateway observation windows
// to galleryd's health monitor. *Client satisfies serve.HealthSink, so a
// gateway pointed at galleryd flushes its sketches here.
func (c *Client) ReportHealthObservations(ctx context.Context, req api.HealthObservationsRequest) error {
	var resp api.HealthObservationsResponse
	return c.doCtx(ctx, "POST", "/v1/health/observations", req, &resp)
}

// ListModelHealth reads every tracked model's health verdict.
func (c *Client) ListModelHealth() ([]api.ModelHealth, error) {
	var out []api.ModelHealth
	err := c.do("GET", "/v1/health/models", nil, &out)
	return out, err
}

// ModelHealth reads one model's health verdict.
func (c *Client) ModelHealth(modelID string) (api.ModelHealth, error) {
	var out api.ModelHealth
	err := c.do("GET", "/v1/health/models/"+modelID, nil, &out)
	return out, err
}

// AuditQuery filters an AuditEvents search. All set fields AND together.
// Since/Until accept an RFC3339 instant or a relative duration ("15m"
// means that long ago); Where entries are raw "field:op:value" predicates
// using the operator names of POST /v1/search.
type AuditQuery struct {
	Entity string
	Model  string
	Action string
	Actor  string
	Trace  string
	Since  string
	Until  string
	Where  []string
	Limit  int
	Asc    bool // oldest first; default is newest first
}

// AuditEvents searches the service's lifecycle audit trail (GET /v1/audit).
func (c *Client) AuditEvents(q AuditQuery) ([]api.AuditEvent, error) {
	v := url.Values{}
	set := func(k, val string) {
		if val != "" {
			v.Set(k, val)
		}
	}
	set("entity", q.Entity)
	set("model", q.Model)
	set("action", q.Action)
	set("actor", q.Actor)
	set("trace", q.Trace)
	set("since", q.Since)
	set("until", q.Until)
	for _, w := range q.Where {
		v.Add("where", w)
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Asc {
		v.Set("order", "asc")
	}
	path := "/v1/audit"
	if enc := v.Encode(); enc != "" {
		path += "?" + enc
	}
	var out api.AuditEventsResponse
	err := c.do("GET", path, nil, &out)
	return out.Events, err
}

// EntityTimeline reads one entity's audit lineage — the events naming it
// plus, for a model, events on its instances and versions — in write
// order (GET /v1/audit/entity/{id}). limit <= 0 uses the server default.
func (c *Client) EntityTimeline(id string, limit int) ([]api.AuditEvent, error) {
	path := "/v1/audit/entity/" + url.PathEscape(id)
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var out api.AuditEventsResponse
	err := c.do("GET", path, nil, &out)
	return out.Events, err
}

// ReportAuditEvent ships one externally-witnessed lifecycle event to the
// service's audit trail (POST /v1/audit) — how a gateway pointed at
// galleryd records its hot swaps in the same trail as the promotions
// that caused them.
func (c *Client) ReportAuditEvent(ctx context.Context, ev api.AuditEvent) error {
	return c.ship(ctx, "/v1/audit", api.RecordAuditRequest{Events: []api.AuditEvent{ev}})
}

// LogsQuery filters a DebugLogs read.
type LogsQuery struct {
	Level string // debug | info | warn | error
	Since string // RFC3339 or a relative duration like 5m
	// After is the next_seq cursor of a previous response; HasAfter
	// distinguishes "from seq 0" from "no cursor".
	After    uint64
	HasAfter bool
	Limit    int
}

// DebugLogs reads the process's structured-log ring (GET /v1/debug/logs),
// oldest first. The returned NextSeq goes back in LogsQuery.After to
// receive only newer lines — follow mode.
func (c *Client) DebugLogs(q LogsQuery) (api.DebugLogsResponse, error) {
	v := url.Values{}
	if q.Level != "" {
		v.Set("level", q.Level)
	}
	if q.Since != "" {
		v.Set("since", q.Since)
	}
	if q.HasAfter {
		v.Set("after", strconv.FormatUint(q.After, 10))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	path := "/v1/debug/logs"
	if enc := v.Encode(); enc != "" {
		path += "?" + enc
	}
	var out api.DebugLogsResponse
	err := c.do("GET", path, nil, &out)
	return out, err
}
