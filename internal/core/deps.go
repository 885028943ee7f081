package core

import (
	"context"
	"fmt"
	"sort"

	"gallery/internal/audit"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// This file implements dependency management with versioning (paper
// §3.4.2, Figures 5–7): the upstream/downstream graph, cycle rejection,
// and automatic version propagation. When a model changes, every
// transitive downstream gets a new version record — but production
// pointers are left alone, because "models are not automatically updated
// ... users [must] be aware that their model dependencies have changed
// before their production environment is updated."

// AddDependency declares that from depends on to. It rejects self-edges,
// duplicate edges, and anything that would create a cycle. Adding a
// dependency bumps from's version (paper Fig. 7) and propagates to from's
// downstreams.
func (g *Registry) AddDependency(from, to uuid.UUID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if from == to {
		return fmt.Errorf("%w: model cannot depend on itself", ErrBadSpec)
	}
	if _, err := g.getModelLocked(from); err != nil {
		return err
	}
	if _, err := g.getModelLocked(to); err != nil {
		return err
	}
	// Cycle check: from→to is a cycle iff to already (transitively)
	// depends on from.
	reach, err := g.transitiveUpstreamsLocked(to)
	if err != nil {
		return err
	}
	if reach[from] {
		return fmt.Errorf("%w: %s already depends on %s", ErrCycle, to, from)
	}
	d := &Dependency{From: from, To: to, Created: g.now()}
	muts := []relstore.Mutation{
		{Kind: relstore.MutInsert, Table: TableDeps, Row: depToRow(d)},
	}
	bumps, err := g.versionBumpsLocked(from, CauseDepAdded, uuid.Nil, to)
	if err != nil {
		return err
	}
	muts = append(muts, bumps...)
	if err := g.dal.Meta().Batch(muts); err != nil {
		return fmt.Errorf("core: add dependency %s -> %s: %w", from, to, err)
	}
	g.audited(context.Background(), audit.Event{
		Action: audit.ActionDepAdd, EntityType: audit.EntityModel,
		EntityID: from.String(), ModelID: from.String(),
		After: "depends on " + to.String(),
	})
	return nil
}

// RemoveDependency deletes the edge from→to and, like any dependency
// change, versions the downstream side.
func (g *Registry) RemoveDependency(from, to uuid.UUID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	muts := []relstore.Mutation{
		{Kind: relstore.MutDelete, Table: TableDeps, PK: depKey(from, to)},
	}
	bumps, err := g.versionBumpsLocked(from, CauseDepRemoved, uuid.Nil, to)
	if err != nil {
		return err
	}
	muts = append(muts, bumps...)
	if err := g.dal.Meta().Batch(muts); err != nil {
		return err
	}
	g.audited(context.Background(), audit.Event{
		Action: audit.ActionDepRemove, EntityType: audit.EntityModel,
		EntityID: from.String(), ModelID: from.String(),
		Before: "depends on " + to.String(),
	})
	return nil
}

// Upstreams returns the models that id directly depends on.
func (g *Registry) Upstreams(id uuid.UUID) ([]uuid.UUID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.upstreamsLocked(id)
}

// Downstreams returns the models that directly depend on id.
func (g *Registry) Downstreams(id uuid.UUID) ([]uuid.UUID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.downstreamsLocked(id)
}

// TransitiveDownstreams returns every model reachable by following
// "depends on id" edges — the blast radius of changing id, which is the
// holistic view the paper motivates.
func (g *Registry) TransitiveDownstreams(id uuid.UUID) ([]uuid.UUID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	set, err := g.transitiveDownstreamsLocked(id)
	if err != nil {
		return nil, err
	}
	return sortedIDs(set), nil
}

func (g *Registry) upstreamsLocked(id uuid.UUID) ([]uuid.UUID, error) {
	return g.depEdges("from_model", id, "to_model")
}

func (g *Registry) downstreamsLocked(id uuid.UUID) ([]uuid.UUID, error) {
	return g.depEdges("to_model", id, "from_model")
}

func (g *Registry) depEdges(matchField string, id uuid.UUID, wantField string) ([]uuid.UUID, error) {
	return selectAs(context.Background(), g.dal.Meta(), relstore.Query{
		Table:   TableDeps,
		Where:   []relstore.Constraint{{Field: matchField, Op: relstore.OpEq, Value: relstore.String(id.String())}},
		OrderBy: "created",
	}, func(r relstore.Row) (uuid.UUID, error) {
		u, err := uuid.Parse(r[wantField].Str)
		if err != nil {
			return uuid.Nil, fmt.Errorf("core: corrupt dependency row: %w", err)
		}
		return u, nil
	})
}

func (g *Registry) transitiveUpstreamsLocked(id uuid.UUID) (map[uuid.UUID]bool, error) {
	return g.closure(id, g.upstreamsLocked)
}

func (g *Registry) transitiveDownstreamsLocked(id uuid.UUID) (map[uuid.UUID]bool, error) {
	return g.closure(id, g.downstreamsLocked)
}

// closure BFSes from start (exclusive) following step.
func (g *Registry) closure(start uuid.UUID, step func(uuid.UUID) ([]uuid.UUID, error)) (map[uuid.UUID]bool, error) {
	seen := make(map[uuid.UUID]bool)
	frontier := []uuid.UUID{start}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		next, err := step(cur)
		if err != nil {
			return nil, err
		}
		for _, n := range next {
			if n != start && !seen[n] {
				seen[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	return seen, nil
}

// versionBumpsLocked builds the mutations for one model change: a new
// version record for the changed model (promoted to production — its
// owner made the change deliberately) plus non-production dep_update
// records for every transitive downstream.
func (g *Registry) versionBumpsLocked(changed uuid.UUID, cause VersionCause, instanceID, triggeredBy uuid.UUID) ([]relstore.Mutation, error) {
	var muts []relstore.Mutation
	own, err := g.bumpOneLocked(changed, cause, instanceID, triggeredBy, true)
	if err != nil {
		return nil, err
	}
	muts = append(muts, own...)

	down, err := g.transitiveDownstreamsLocked(changed)
	if err != nil {
		return nil, err
	}
	for _, d := range sortedIDs(down) {
		dm, err := g.bumpOneLocked(d, CauseDepUpdate, uuid.Nil, changed, false)
		if err != nil {
			return nil, err
		}
		muts = append(muts, dm...)
	}
	return muts, nil
}

// bumpOneLocked creates the next version record for one model, reading
// the denormalized minor counter off the model row so the bump is O(1) in
// the model's history length. When production is true it also demotes the
// current production record and repoints the model at the new one.
func (g *Registry) bumpOneLocked(id uuid.UUID, cause VersionCause, instanceID, triggeredBy uuid.UUID, production bool) ([]relstore.Mutation, error) {
	m, err := g.getModelLocked(id)
	if err != nil {
		return nil, err
	}
	v := &VersionRecord{
		ID:          g.gen.New(),
		ModelID:     id,
		Major:       m.Major,
		Minor:       m.Minor + 1,
		Cause:       cause,
		InstanceID:  instanceID,
		TriggeredBy: triggeredBy,
		Created:     g.now(),
		Production:  production,
	}
	var muts []relstore.Mutation
	if production {
		if !m.ProductionVersion.IsNil() {
			cur, err := g.versionByIDLocked(m.ProductionVersion)
			if err != nil {
				return nil, err
			}
			cur.Production = false
			muts = append(muts, relstore.Mutation{Kind: relstore.MutUpdate, Table: TableVersions, Row: versionToRow(cur)})
		}
		m.ProductionVersion = v.ID
	}
	m.Minor = v.Minor
	muts = append(muts,
		relstore.Mutation{Kind: relstore.MutInsert, Table: TableVersions, Row: versionToRow(v)},
		relstore.Mutation{Kind: relstore.MutUpdate, Table: TableModels, Row: modelToRow(m)},
	)
	return muts, nil
}

// versionByIDLocked fetches one version record by primary key.
func (g *Registry) versionByIDLocked(id uuid.UUID) (*VersionRecord, error) {
	row, err := g.dal.Meta().Get(TableVersions, id.String())
	if err != nil {
		return nil, fmt.Errorf("%w: version %s", ErrNotFound, id)
	}
	return rowToVersion(row)
}

// Version fetches one version record by primary key.
func (g *Registry) Version(id uuid.UUID) (*VersionRecord, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.versionByIDLocked(id)
}

// VersionHistory returns a model's version records, oldest first.
func (g *Registry) VersionHistory(id uuid.UUID) ([]*VersionRecord, error) {
	return selectAs(context.Background(), g.dal.Meta(), relstore.Query{
		Table:   TableVersions,
		Where:   []relstore.Constraint{{Field: "model_id", Op: relstore.OpEq, Value: relstore.String(id.String())}},
		OrderBy: "minor",
	}, rowToVersion)
}

// LatestVersion returns a model's newest version record.
func (g *Registry) LatestVersion(id uuid.UUID) (*VersionRecord, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, err := g.latestVersionLocked(id)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, fmt.Errorf("%w: model %s has no versions", ErrNotFound, id)
	}
	return v, nil
}

func (g *Registry) latestVersionLocked(id uuid.UUID) (*VersionRecord, error) {
	vs, err := selectAs(context.Background(), g.dal.Meta(), relstore.Query{
		Table:   TableVersions,
		Where:   []relstore.Constraint{{Field: "model_id", Op: relstore.OpEq, Value: relstore.String(id.String())}},
		OrderBy: "minor",
		Desc:    true,
		Limit:   1,
	}, rowToVersion)
	if err != nil || len(vs) == 0 {
		return nil, err
	}
	return vs[0], nil
}

// ProductionVersion returns the version currently promoted for a model,
// or ErrNotFound if none is.
func (g *Registry) ProductionVersion(id uuid.UUID) (*VersionRecord, error) {
	return g.ProductionVersionCtx(context.Background(), id)
}

// ProductionVersionCtx is ProductionVersion with trace attribution. The
// lookup runs under the registry lock, so the span covers the whole
// resolve (model row + version row) rather than individual table reads.
func (g *Registry) ProductionVersionCtx(ctx context.Context, id uuid.UUID) (*VersionRecord, error) {
	_, span := trace.Start(ctx, "core.production_version")
	if span != nil {
		span.Annotate("model", id.String())
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v, err := g.productionVersionLocked(id)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	if v == nil {
		err = fmt.Errorf("%w: model %s has no production version", ErrNotFound, id)
		span.EndErr(err)
		return nil, err
	}
	span.End()
	return v, nil
}

func (g *Registry) productionVersionLocked(id uuid.UUID) (*VersionRecord, error) {
	m, err := g.getModelLocked(id)
	if err != nil {
		return nil, err
	}
	if m.ProductionVersion.IsNil() {
		return nil, nil
	}
	return g.versionByIDLocked(m.ProductionVersion)
}

// Promote marks a version record as the production version for its model,
// demoting whichever held that role — the owner's explicit upgrade step
// after a dependency update (paper §3.4.2).
func (g *Registry) Promote(versionID uuid.UUID) error {
	return g.PromoteCtx(context.Background(), versionID)
}

// PromoteCtx is Promote carrying the caller's context, so the audit event
// inherits its actor and trace lineage.
func (g *Registry) PromoteCtx(ctx context.Context, versionID uuid.UUID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.promoteLocked(ctx, versionID)
}

// PromoteInstance promotes the version record realized by an instance —
// what a deployment callback holds is an instance id, so this resolves it
// to the version the upload minted (the newest one, should a model ever
// carry several records for one instance) and promotes that.
func (g *Registry) PromoteInstance(instanceID uuid.UUID) error {
	return g.PromoteInstanceCtx(context.Background(), instanceID)
}

// PromoteInstanceCtx is PromoteInstance with audit/trace lineage from the
// caller — a rule-driven deployment passes the firing rule's context so
// the promotion event links back to the trace that triggered it.
func (g *Registry) PromoteInstanceCtx(ctx context.Context, instanceID uuid.UUID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	in, err := g.GetInstance(instanceID)
	if err != nil {
		return err
	}
	vs, err := selectAs(ctx, g.dal.Meta(), relstore.Query{
		Table: TableVersions,
		Where: []relstore.Constraint{
			{Field: "model_id", Op: relstore.OpEq, Value: relstore.String(in.ModelID.String())},
			{Field: "instance_id", Op: relstore.OpEq, Value: relstore.String(instanceID.String())},
		},
		OrderBy: "minor",
		Desc:    true,
		Limit:   1,
	}, rowToVersion)
	if err != nil {
		return err
	}
	if len(vs) == 0 {
		return fmt.Errorf("%w: instance %s has no version record", ErrNotFound, instanceID)
	}
	return g.promoteLocked(ctx, vs[0].ID)
}

func (g *Registry) promoteLocked(ctx context.Context, versionID uuid.UUID) error {
	row, err := g.dal.Meta().Get(TableVersions, versionID.String())
	if err != nil {
		return fmt.Errorf("%w: version %s", ErrNotFound, versionID)
	}
	v, err := rowToVersion(row)
	if err != nil {
		return err
	}
	if v.Production {
		return nil
	}
	m, err := g.getModelLocked(v.ModelID)
	if err != nil {
		return err
	}
	var muts []relstore.Mutation
	before := "none"
	if !m.ProductionVersion.IsNil() {
		cur, err := g.versionByIDLocked(m.ProductionVersion)
		if err != nil {
			return err
		}
		cur.Production = false
		before = fmt.Sprintf("v%d.%d (%s)", cur.Major, cur.Minor, cur.ID)
		muts = append(muts, relstore.Mutation{Kind: relstore.MutUpdate, Table: TableVersions, Row: versionToRow(cur)})
	}
	v.Production = true
	m.ProductionVersion = v.ID
	muts = append(muts,
		relstore.Mutation{Kind: relstore.MutUpdate, Table: TableVersions, Row: versionToRow(v)},
		relstore.Mutation{Kind: relstore.MutUpdate, Table: TableModels, Row: modelToRow(m)},
	)
	if err := g.dal.Meta().BatchCtx(ctx, muts); err != nil {
		return err
	}
	// The event lands on the realized instance when the version has one
	// (so an instance timeline shows its promotions) and joins the model
	// timeline through model_id either way.
	entityType, entityID := audit.EntityModel, v.ModelID.String()
	if !v.InstanceID.IsNil() {
		entityType, entityID = audit.EntityInstance, v.InstanceID.String()
	}
	g.audited(ctx, audit.Event{
		Action: audit.ActionPromote, EntityType: entityType,
		EntityID: entityID, ModelID: v.ModelID.String(),
		Before: before,
		After:  fmt.Sprintf("v%d.%d (%s)", v.Major, v.Minor, v.ID),
	})
	return nil
}

func sortedIDs(set map[uuid.UUID]bool) []uuid.UUID {
	out := make([]uuid.UUID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
