package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"gallery/internal/audit"
	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/dal"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// Sentinel errors for callers that branch on failure modes.
var (
	ErrNotFound   = errors.New("core: not found")
	ErrBadSpec    = errors.New("core: invalid specification")
	ErrCycle      = errors.New("core: dependency cycle")
	ErrDeprecated = errors.New("core: target is deprecated")
)

// Options configures a Registry.
type Options struct {
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// UUIDs defaults to the crypto/rand generator; seed one for
	// deterministic experiments.
	UUIDs *uuid.Generator
	// CacheBytes bounds the blob read cache (default 256 MiB).
	CacheBytes int64
	// Obs receives DAL metrics; nil uses obs.Default.
	Obs *obs.Registry
	// AuditKeep bounds the audit events retained per entity (0 uses
	// audit.DefaultKeep; negative disables pruning).
	AuditKeep int
}

// Registry is the Gallery service core: every API the paper's Thrift
// surface exposes is a method here. It is safe for concurrent use;
// multi-row operations (instance upload with version propagation,
// dependency changes) are serialized internally and written as atomic
// batches.
type Registry struct {
	dal   *dal.DAL
	clk   clock.Clock
	gen   *uuid.Generator
	audit *audit.Log

	// mu serializes read-modify-write sequences such as version bumps
	// and dependency propagation, which span multiple store calls.
	mu sync.Mutex
}

// New assembles a Registry over a metadata store and a blob store,
// declaring all Gallery schemas (idempotent over a recovered store).
func New(meta *relstore.Store, blobs *blobstore.Store, opts Options) (*Registry, error) {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.UUIDs == nil {
		opts.UUIDs = uuid.NewGenerator()
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 256 << 20
	}
	for _, s := range Schemas() {
		if err := meta.CreateTable(s); err != nil {
			return nil, err
		}
	}
	d := dal.New(meta, blobs, dal.Options{
		CacheBytes: opts.CacheBytes,
		Refs:       []dal.BlobRef{{Table: TableInstances, LocField: "blob_location"}},
		Obs:        opts.Obs,
	})
	// The lifecycle audit trail lives in the same store, so it shares the
	// metadata WAL's durability and crash recovery.
	aud, err := audit.Open(meta, audit.Options{
		Clock: opts.Clock,
		UUIDs: opts.UUIDs,
		Keep:  opts.AuditKeep,
		Obs:   opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	return &Registry{dal: d, clk: opts.Clock, gen: opts.UUIDs, audit: aud}, nil
}

// DAL exposes the data access layer for experiments that need its stats.
func (g *Registry) DAL() *dal.DAL { return g.dal }

// Commit makes every registry mutation that returned before the call
// durable in the metadata WAL (see relstore.Store.Commit). Mutators do not
// wait for the disk themselves — several hold g.mu — so whoever
// acknowledges their work commits first: the HTTP server once per
// mutating request, a background loop once per pass.
func (g *Registry) Commit(ctx context.Context) error { return g.dal.Meta().Commit(ctx) }

// Audit exposes the lifecycle audit trail; subsystems above the core
// (rule engine, health monitor, HTTP server) record their events here.
func (g *Registry) Audit() *audit.Log { return g.audit }

func (g *Registry) now() time.Time { return g.clk.Now() }

// --- models ---

// RegisterModel creates a new model record with its declared dependencies
// and an initial version record, atomically.
func (g *Registry) RegisterModel(spec ModelSpec) (*Model, error) {
	return g.RegisterModelCtx(context.Background(), spec)
}

// RegisterModelCtx is RegisterModel carrying the caller's context, so the
// audit event inherits its actor and trace lineage.
func (g *Registry) RegisterModelCtx(ctx context.Context, spec ModelSpec) (*Model, error) {
	if spec.BaseVersionID == "" {
		return nil, fmt.Errorf("%w: base version id is required", ErrBadSpec)
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	major := spec.InitialMajor
	if major <= 0 {
		major = 1
	}
	m := &Model{
		ID:            g.gen.New(),
		BaseVersionID: spec.BaseVersionID,
		Project:       spec.Project,
		Name:          spec.Name,
		Owner:         spec.Owner,
		Team:          spec.Team,
		Domain:        spec.Domain,
		Description:   spec.Description,
		Major:         major,
		Created:       g.now(),
	}
	v := &VersionRecord{
		ID:         g.gen.New(),
		ModelID:    m.ID,
		Major:      major,
		Minor:      0,
		Cause:      CauseRegistered,
		Created:    g.now(),
		Production: true,
	}
	m.ProductionVersion = v.ID
	ids := idText{}
	muts := []relstore.Mutation{
		{Kind: relstore.MutInsert, Table: TableModels, Row: modelToRow(m, ids)},
		{Kind: relstore.MutInsert, Table: TableVersions, Row: versionToRow(v, ids)},
	}
	for _, up := range spec.Upstreams {
		if _, err := g.getModelLocked(ctx, up); err != nil {
			return nil, fmt.Errorf("%w: upstream %s", err, up)
		}
		d := &Dependency{From: m.ID, To: up, Created: g.now()}
		muts = append(muts, relstore.Mutation{Kind: relstore.MutInsert, Table: TableDeps, Row: depToRow(d)})
	}
	if err := g.audit.Batch(ctx, muts, audit.Event{
		Action: audit.ActionModelRegister, EntityType: audit.EntityModel,
		EntityID: ids.of(m.ID), ModelID: ids.of(m.ID),
		After:  fmt.Sprintf("v%d.0", major),
		Detail: fmt.Sprintf("project=%s name=%s base=%s", m.Project, m.Name, m.BaseVersionID),
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// GetModel fetches a model by id.
func (g *Registry) GetModel(id uuid.UUID) (*Model, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.getModelLocked(context.Background(), id)
}

func (g *Registry) getModelLocked(ctx context.Context, id uuid.UUID) (*Model, error) {
	row, err := g.dal.Meta().GetTuple(ctx, TableModels, id.String())
	if errors.Is(err, relstore.ErrNotFound) {
		return nil, fmt.Errorf("%w: model %s", ErrNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	return rowToModel(row)
}

// ModelsByBase returns every model record registered under a base version
// id, oldest first.
func (g *Registry) ModelsByBase(baseVersionID string) ([]*Model, error) {
	return selectAs(context.Background(), g.dal.Meta(), relstore.Query{
		Table:   TableModels,
		Where:   []relstore.Constraint{{Field: "base_version_id", Op: relstore.OpEq, Value: relstore.String(baseVersionID)}},
		OrderBy: "created",
	}, rowToModel)
}

// EvolveModel registers the successor of an existing model — a change to
// the underlying transform (new features, new architecture; paper §3.4.1).
// The new record's major version is the predecessor's plus one, and the two
// records are linked through next/previous pointers (§3.3.1).
func (g *Registry) EvolveModel(ctx context.Context, prevID uuid.UUID, description string) (*Model, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	prev, err := g.getModelLocked(ctx, prevID)
	if err != nil {
		return nil, err
	}
	if !prev.NextModel.IsNil() {
		return nil, fmt.Errorf("%w: model %s already has a successor %s", ErrBadSpec, prevID, prev.NextModel)
	}
	next := &Model{
		ID:            g.gen.New(),
		BaseVersionID: prev.BaseVersionID,
		Project:       prev.Project,
		Name:          prev.Name,
		Owner:         prev.Owner,
		Team:          prev.Team,
		Domain:        prev.Domain,
		Description:   description,
		Major:         prev.Major + 1,
		PrevModel:     prev.ID,
		Created:       g.now(),
	}
	prev.NextModel = next.ID
	v := &VersionRecord{
		ID:         g.gen.New(),
		ModelID:    next.ID,
		Major:      next.Major,
		Minor:      0,
		Cause:      CauseRegistered,
		Created:    g.now(),
		Production: true,
	}
	next.ProductionVersion = v.ID
	// The evolved model inherits its predecessor's dependencies.
	ups, err := g.upstreamsLocked(ctx, prev.ID)
	if err != nil {
		return nil, err
	}
	ids := idText{}
	muts := []relstore.Mutation{
		{Kind: relstore.MutInsert, Table: TableModels, Row: modelToRow(next, ids)},
		{Kind: relstore.MutUpdate, Table: TableModels, Row: modelToRow(prev, ids)},
		{Kind: relstore.MutInsert, Table: TableVersions, Row: versionToRow(v, ids)},
	}
	for _, up := range ups {
		d := &Dependency{From: next.ID, To: up, Created: g.now()}
		muts = append(muts, relstore.Mutation{Kind: relstore.MutInsert, Table: TableDeps, Row: depToRow(d)})
	}
	if err := g.audit.Batch(ctx, muts, audit.Event{
		Action: audit.ActionModelEvolve, EntityType: audit.EntityModel,
		EntityID: ids.of(next.ID), ModelID: ids.of(next.ID),
		Before: fmt.Sprintf("v%d (%s)", prev.Major, ids.of(prev.ID)),
		After:  fmt.Sprintf("v%d.0", next.Major),
		Detail: description,
	}); err != nil {
		return nil, err
	}
	return next, nil
}

// Evolution returns the full prev/next chain containing model id, oldest
// first.
func (g *Registry) Evolution(id uuid.UUID) ([]*Model, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, err := g.getModelLocked(context.Background(), id)
	if err != nil {
		return nil, err
	}
	// Walk to the head.
	head := m
	for !head.PrevModel.IsNil() {
		prev, err := g.getModelLocked(context.Background(), head.PrevModel)
		if err != nil {
			return nil, err
		}
		head = prev
	}
	var chain []*Model
	for cur := head; ; {
		chain = append(chain, cur)
		if cur.NextModel.IsNil() {
			break
		}
		next, err := g.getModelLocked(context.Background(), cur.NextModel)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return chain, nil
}

// DeprecateModel flags a model as deprecated. It is not deleted: existing
// consumers keep working until they migrate (paper §3.7, Model
// Deprecation).
func (g *Registry) DeprecateModel(ctx context.Context, id uuid.UUID) error {
	_, err := g.DeprecateModelReport(ctx, id)
	return err
}

// DeprecateModelReport is DeprecateModel reporting whether this call
// performed the active→deprecated transition (false when the model was
// already deprecated — deprecation is idempotent). The transition is
// decided under the registry lock, so exactly one of any set of racing
// calls reports true; the multi-tenant layer relies on that to release
// the owning namespace's model-quota slot exactly once.
func (g *Registry) DeprecateModelReport(ctx context.Context, id uuid.UUID) (retired bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, err := g.getModelLocked(ctx, id)
	if err != nil {
		return false, err
	}
	if m.Deprecated {
		return false, nil
	}
	m.Deprecated = true
	ids := idText{}
	muts := []relstore.Mutation{{Kind: relstore.MutUpdate, Table: TableModels, Row: modelToRow(m, ids)}}
	if err := g.audit.Batch(ctx, muts, audit.Event{
		Action: audit.ActionModelDeprecate, EntityType: audit.EntityModel,
		EntityID: ids.of(id), ModelID: ids.of(id),
		Before: "active", After: "deprecated",
	}); err != nil {
		return false, err
	}
	return true, nil
}

// --- instances ---

// UploadInstance saves a trained model instance: the blob is written to
// blob storage first, then the instance row, its version record, all
// dependency-propagated version bumps and the upload's audit events land
// in one atomic metadata batch (paper §3.5 write ordering; §3.4.2
// propagation). The returned instance carries its assigned UUID and blob
// location.
func (g *Registry) UploadInstance(spec InstanceSpec, blob []byte) (*Instance, error) {
	return g.UploadInstanceCtx(context.Background(), spec, blob)
}

// UploadInstanceCtx is UploadInstance with trace attribution: the span's
// children are the replicated blob put and the atomic metadata batch, so
// a slow upload shows which half cost what.
func (g *Registry) UploadInstanceCtx(ctx context.Context, spec InstanceSpec, blob []byte) (*Instance, error) {
	ctx, span := trace.Start(ctx, "core.upload_instance")
	if span != nil {
		span.AnnotateInt("blob_bytes", int64(len(blob)))
	}
	in, err := g.uploadInstanceCtx(ctx, spec, blob)
	span.EndErr(err)
	return in, err
}

func (g *Registry) uploadInstanceCtx(ctx context.Context, spec InstanceSpec, blob []byte) (*Instance, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, err := g.getModelLocked(ctx, spec.ModelID)
	if err != nil {
		return nil, err
	}

	in := &Instance{
		ID:            g.gen.New(),
		ModelID:       m.ID,
		BaseVersionID: m.BaseVersionID,
		Project:       m.Project,
		Name:          spec.Name,
		City:          spec.City,
		Framework:     spec.Framework,
		TrainingData:  spec.TrainingData,
		CodePointer:   spec.CodePointer,
		Seed:          spec.Seed,
		Epochs:        spec.Epochs,
		Hyperparams:   spec.Hyperparams,
		Features:      spec.Features,
		Created:       g.now(),
	}

	ids := idText{}
	iid, mid := ids.of(in.ID), ids.of(m.ID)

	// Blob first: if this fails nothing is recorded. The location is
	// pinned across the blob-write/metadata-insert window so a concurrent
	// orphan collection cannot reap the not-yet-referenced blob (the DAL
	// pin protocol; see internal/dal).
	pinLoc := g.dal.Blobs().Location(iid)
	g.dal.Pin(pinLoc)
	defer g.dal.Unpin(pinLoc)
	loc, err := g.dal.PutBlobCtx(ctx, iid, blob)
	if err != nil {
		return nil, fmt.Errorf("core: blob write for instance %s: %w", iid, err)
	}
	in.BlobLocation = loc

	// The owning model gets a retrained version, promoted to production
	// (the owner trained it deliberately); downstreams get non-production
	// dep_update versions.
	bumps, prod, demoted, err := g.versionBumpsLocked(ctx, m, ids, CauseRetrained, in.ID, uuid.Nil)
	if err != nil {
		return nil, err
	}
	muts := append([]relstore.Mutation{{Kind: relstore.MutInsert, Table: TableInstances, Row: instanceToRow(in, ids)}}, bumps...)
	err = g.audit.Batch(ctx, muts, audit.Event{
		Action: audit.ActionInstanceUpload, EntityType: audit.EntityInstance,
		EntityID: iid, ModelID: mid,
		After:  fmt.Sprintf("blob=%s bytes=%d", loc, len(blob)),
		Detail: fmt.Sprintf("name=%s city=%s framework=%s", in.Name, in.City, in.Framework),
	}, audit.Event{
		// The upload implicitly flips the production pointer (the owner's
		// retrained version is born promoted); recording that transition
		// too lets a timeline reader see every pointer change, implicit
		// or explicit.
		Action: audit.ActionPromote, EntityType: audit.EntityInstance,
		EntityID: iid, ModelID: mid,
		Before: versionText(demoted), After: versionText(prod),
		Detail: "auto-promoted on upload",
	})
	if err != nil {
		// The blob is now an orphan; the DAL garbage collector reclaims
		// it. Audit the half-written state so the blob-first write that
		// never got its metadata is visible post-hoc.
		return nil, errors.Join(fmt.Errorf("core: metadata write for instance %s (blob orphaned): %w", iid, err),
			g.audit.Record(ctx, audit.Event{
				Action: audit.ActionUploadFailed, EntityType: audit.EntityInstance,
				EntityID: iid, ModelID: mid,
				Before: "blob written", After: "metadata write failed",
				Detail: fmt.Sprintf("blob orphaned at %s (%d bytes): %v", loc, len(blob), err),
			}))
	}
	return in, nil
}

// GetInstance fetches instance metadata by id.
func (g *Registry) GetInstance(ctx context.Context, id uuid.UUID) (*Instance, error) {
	row, err := g.dal.Meta().GetTuple(ctx, TableInstances, id.String())
	if errors.Is(err, relstore.ErrNotFound) {
		return nil, fmt.Errorf("%w: instance %s", ErrNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	return rowToInstance(row)
}

// FetchBlob returns the serialized model bytes for an instance, through
// the DAL's read cache. Its span's children are the metadata read and the
// cached blob read.
func (g *Registry) FetchBlob(ctx context.Context, id uuid.UUID) ([]byte, error) {
	ctx, span := trace.Start(ctx, "core.fetch_blob")
	if span != nil {
		span.Annotate("instance", id.String())
	}
	data, err := g.fetchBlobCtx(ctx, id)
	span.EndErr(err)
	return data, err
}

func (g *Registry) fetchBlobCtx(ctx context.Context, id uuid.UUID) ([]byte, error) {
	in, err := g.GetInstance(ctx, id)
	if err != nil {
		return nil, err
	}
	if in.BlobLocation == "" {
		return nil, fmt.Errorf("%w: instance %s has no blob", ErrNotFound, id)
	}
	return g.dal.GetBlobCtx(ctx, in.BlobLocation)
}

// DeprecateInstance flags an instance; fetching by id still works, but
// default searches skip it.
func (g *Registry) DeprecateInstance(ctx context.Context, id uuid.UUID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	row, err := g.dal.Meta().Get(ctx, TableInstances, id.String())
	if errors.Is(err, relstore.ErrNotFound) {
		return fmt.Errorf("%w: instance %s", ErrNotFound, id)
	}
	if err != nil {
		return err
	}
	if row["deprecated"].Bool() {
		return nil
	}
	row["deprecated"] = relstore.Bool(true)
	return g.audit.Batch(ctx, []relstore.Mutation{{Kind: relstore.MutUpdate, Table: TableInstances, Row: row}}, audit.Event{
		Action: audit.ActionInstanceDeprecate, EntityType: audit.EntityInstance,
		EntityID: row["id"].Str, ModelID: row["model_id"].Str,
		Before: "active", After: "deprecated",
	})
}

// Lineage returns every instance trained under a base version id, sorted
// by creation time — the traversal of paper Fig. 4.
func (g *Registry) Lineage(baseVersionID string) ([]*Instance, error) {
	return g.LineageCtx(context.Background(), baseVersionID)
}

// LineageCtx is Lineage with trace attribution down through the metadata
// query.
func (g *Registry) LineageCtx(ctx context.Context, baseVersionID string) ([]*Instance, error) {
	return selectAs(ctx, g.dal.Meta(), relstore.Query{
		Table:   TableInstances,
		Where:   []relstore.Constraint{{Field: "base_version_id", Op: relstore.OpEq, Value: relstore.String(baseVersionID)}},
		OrderBy: "created",
	}, rowToInstance)
}

// --- metrics ---

// InsertMetric records one evaluation measurement for an instance.
func (g *Registry) InsertMetric(ctx context.Context, instanceID uuid.UUID, name string, scope Scope, value float64) (*Metric, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: metric name is required", ErrBadSpec)
	}
	if !ValidScope(scope) {
		return nil, fmt.Errorf("%w: unknown scope %q", ErrBadSpec, scope)
	}
	if err := checkMetricValue(name, value); err != nil {
		return nil, err
	}
	in, err := g.GetInstance(ctx, instanceID)
	if err != nil {
		return nil, err
	}
	m := &Metric{
		ID:         g.gen.New(),
		InstanceID: instanceID,
		ModelID:    in.ModelID,
		Name:       name,
		Scope:      scope,
		Value:      value,
		At:         g.now(),
	}
	if err := g.dal.Meta().InsertCtx(ctx, TableMetrics, metricToRow(m)); err != nil {
		return nil, err
	}
	return m, nil
}

// InsertMetrics records a whole "<metric>:<value>" blob (paper §3.3.3) as
// individual queryable rows.
func (g *Registry) InsertMetrics(instanceID uuid.UUID, scope Scope, values map[string]float64) error {
	return g.InsertMetricsCtx(context.Background(), instanceID, scope, values)
}

// InsertMetricsCtx is InsertMetrics with trace attribution. The set lands
// as one atomic batch — one instance lookup, one WAL record — so a bad
// entry or a failed write leaves none of it behind.
func (g *Registry) InsertMetricsCtx(ctx context.Context, instanceID uuid.UUID, scope Scope, values map[string]float64) error {
	if !ValidScope(scope) {
		return fmt.Errorf("%w: unknown scope %q", ErrBadSpec, scope)
	}
	in, err := g.GetInstance(ctx, instanceID)
	if err != nil {
		return err
	}
	// Deterministic order so ids, timestamps and failures are reproducible.
	names := make([]string, 0, len(values))
	for n, v := range values {
		if n == "" {
			return fmt.Errorf("%w: metric name is required", ErrBadSpec)
		}
		if err := checkMetricValue(n, v); err != nil {
			return err
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	muts := make([]relstore.Mutation, len(names))
	for i, n := range names {
		muts[i] = relstore.Mutation{Kind: relstore.MutInsert, Table: TableMetrics, Row: metricToRow(&Metric{
			ID:         g.gen.New(),
			InstanceID: instanceID,
			ModelID:    in.ModelID,
			Name:       n,
			Scope:      scope,
			Value:      values[n],
			At:         g.now(),
		})}
	}
	return g.dal.Meta().Batch(ctx, muts)
}

// checkMetricValue rejects NaN and ±Inf. No threshold means anything for
// them, and a search like "mape smaller_or_equal x" must not have to decide
// whether an undefined measurement passes.
func checkMetricValue(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: metric %q has non-finite value %v", ErrBadSpec, name, v)
	}
	return nil
}

// MetricSeries returns an instance's measurements of one metric in one
// scope, oldest first.
func (g *Registry) MetricSeries(instanceID uuid.UUID, name string, scope Scope) ([]*Metric, error) {
	return selectAs(context.Background(), g.dal.Meta(), metricSeriesQuery(instanceID, name, scope), rowToMetric)
}

// metricSeriesQuery is MetricSeries' query. It pins the instance, and the
// metric name on its own: name equality is also the prefix of the
// (name, value) index, which the planner must not prefer to instance_id.
func metricSeriesQuery(instanceID uuid.UUID, name string, scope Scope) relstore.Query {
	return relstore.Query{
		Table: TableMetrics,
		Where: []relstore.Constraint{
			{Field: "instance_id", Op: relstore.OpEq, Value: relstore.String(instanceID.String())},
			{Field: "name", Op: relstore.OpEq, Value: relstore.String(name)},
			{Field: "scope", Op: relstore.OpEq, Value: relstore.String(string(scope))},
		},
		OrderBy: "created",
	}
}

// LatestMetrics returns the most recent value of every metric name
// reported for an instance in a scope — the environment a rule condition
// evaluates against.
func (g *Registry) LatestMetrics(instanceID uuid.UUID, scope Scope) (map[string]float64, error) {
	out := make(map[string]float64)
	_, err := g.dal.Meta().SelectFunc(context.Background(), latestMetricsQuery(instanceID, scope), func(r relstore.Tuple) bool { // ascending by time: later rows overwrite
		out[r[metricCol.name].Str] = r[metricCol.value].Float()
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// latestMetricsQuery is LatestMetrics' query: an instance's metrics in a
// scope, oldest first.
func latestMetricsQuery(instanceID uuid.UUID, scope Scope) relstore.Query {
	return relstore.Query{
		Table: TableMetrics,
		Where: []relstore.Constraint{
			{Field: "instance_id", Op: relstore.OpEq, Value: relstore.String(instanceID.String())},
			{Field: "scope", Op: relstore.OpEq, Value: relstore.String(string(scope))},
		},
		OrderBy: "created",
	}
}

// --- search ---

// InstanceFilter expresses a model search (paper Listing 5): metadata
// constraints plus an optional metric condition, joined on instance id.
type InstanceFilter struct {
	Project       string
	Name          string
	City          string
	BaseVersionID string
	ModelID       uuid.UUID
	Framework     string
	CreatedAfter  time.Time
	CreatedBefore time.Time

	// Metric condition: instances having any metric row with this name
	// (and scope, if set) whose value satisfies MetricOp MetricValue.
	MetricName  string
	MetricScope Scope
	MetricOp    relstore.Op
	MetricValue float64

	// IncludeDeprecated keeps flagged instances in results; by default
	// they are skipped (paper §3.7).
	IncludeDeprecated bool
	Limit             int
	// ForceScan disables index use (search ablation).
	ForceScan bool
}

// SearchInstances runs a metadata/metric search and returns matching
// instances, newest first.
func (g *Registry) SearchInstances(f InstanceFilter) ([]*Instance, error) {
	return g.SearchInstancesCtx(context.Background(), f)
}

// SearchInstancesCtx is SearchInstances with trace attribution: the metric
// join and the instance query each get a relstore.select span.
//
// Both queries read rows in place (relstore.Store.SelectFunc): the metric
// join keeps only the instance ids of its matches, and the instance query
// converts only the rows it returns and stops at Limit. The metric
// condition is one range seek on the (name, value) index. The limit
// cannot be pushed into the store when the metric join filters rows
// afterwards; with a city the (city, created) index still streams the
// city's instances newest first, so the scan stops once Limit of them
// have passed the join.
func (g *Registry) SearchInstancesCtx(ctx context.Context, f InstanceFilter) ([]*Instance, error) {
	var where []relstore.Constraint
	addEq := func(field, val string) {
		if val != "" {
			where = append(where, relstore.Constraint{Field: field, Op: relstore.OpEq, Value: relstore.String(val)})
		}
	}
	addEq("project", f.Project)
	addEq("name", f.Name)
	addEq("city", f.City)
	addEq("base_version_id", f.BaseVersionID)
	addEq("framework", f.Framework)
	if !f.ModelID.IsNil() {
		addEq("model_id", f.ModelID.String())
	}
	if !f.CreatedAfter.IsZero() {
		where = append(where, relstore.Constraint{Field: "created", Op: relstore.OpGt, Value: relstore.Time(f.CreatedAfter)})
	}
	if !f.CreatedBefore.IsZero() {
		where = append(where, relstore.Constraint{Field: "created", Op: relstore.OpLt, Value: relstore.Time(f.CreatedBefore)})
	}
	if !f.IncludeDeprecated {
		where = append(where, relstore.Constraint{Field: "deprecated", Op: relstore.OpEq, Value: relstore.Bool(false)})
	}

	// Resolve the metric condition to an instance-id set first, if present.
	var allowed map[string]bool
	if f.MetricName != "" {
		mwhere := []relstore.Constraint{
			{Field: "name", Op: relstore.OpEq, Value: relstore.String(f.MetricName)},
			{Field: "value", Op: f.MetricOp, Value: relstore.Float(f.MetricValue)},
		}
		if f.MetricScope != "" {
			mwhere = append(mwhere, relstore.Constraint{Field: "scope", Op: relstore.OpEq, Value: relstore.String(string(f.MetricScope))})
		}
		allowed = make(map[string]bool)
		_, err := g.dal.Meta().SelectFunc(ctx, relstore.Query{Table: TableMetrics, Where: mwhere, ForceScan: f.ForceScan},
			func(r relstore.Tuple) bool {
				allowed[r[metricCol.instanceID].Str] = true
				return true
			})
		if err != nil {
			return nil, err
		}
	}

	q := relstore.Query{
		Table:     TableInstances,
		Where:     where,
		OrderBy:   "created",
		Desc:      true,
		ForceScan: f.ForceScan,
	}
	if allowed == nil {
		q.Limit = f.Limit
	}
	var (
		out     []*Instance
		convErr error
	)
	_, err := g.dal.Meta().SelectFunc(ctx, q, func(r relstore.Tuple) bool {
		if allowed != nil && !allowed[r[instCol.id].Str] {
			return true
		}
		in, err := rowToInstance(r)
		if err != nil {
			convErr = err
			return false
		}
		out = append(out, in)
		return f.Limit <= 0 || len(out) < f.Limit
	})
	if err == nil {
		err = convErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Counts reports table sizes for scale experiments.
func (g *Registry) Counts() (models, instances, metrics int) {
	models, _ = g.dal.Meta().Len(TableModels)
	instances, _ = g.dal.Meta().Len(TableInstances)
	metrics, _ = g.dal.Meta().Len(TableMetrics)
	return
}

// --- conversion helpers ---

// selectAs runs q and converts each result row as the store lends it
// (relstore.Store.SelectFunc), so the converted value is the only copy a
// result gets. A conversion error stops the scan and is returned.
func selectAs[T any](ctx context.Context, meta *relstore.Store, q relstore.Query, conv func(relstore.Tuple) (T, error)) ([]T, error) {
	out := []T{}
	var convErr error
	_, err := meta.SelectFunc(ctx, q, func(r relstore.Tuple) bool {
		v, err := conv(r)
		if err != nil {
			convErr = err
			return false
		}
		out = append(out, v)
		return true
	})
	if err == nil {
		err = convErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
