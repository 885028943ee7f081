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
// downstreams. ctx carries the caller's actor and trace into the reads,
// the write and its audit event.
func (g *Registry) AddDependency(ctx context.Context, from, to uuid.UUID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if from == to {
		return fmt.Errorf("%w: model cannot depend on itself", ErrBadSpec)
	}
	m, err := g.getModelLocked(ctx, from)
	if err != nil {
		return err
	}
	if _, err := g.getModelLocked(ctx, to); err != nil {
		return err
	}
	// Cycle check: from→to is a cycle iff to already (transitively)
	// depends on from.
	reach, err := g.transitiveUpstreamsLocked(ctx, to)
	if err != nil {
		return err
	}
	if reach[from] {
		return fmt.Errorf("%w: %s already depends on %s", ErrCycle, to, from)
	}
	d := &Dependency{From: from, To: to, Created: g.now()}
	ids := idText{}
	bumps, _, _, err := g.versionBumpsLocked(ctx, m, ids, CauseDepAdded, uuid.Nil, to)
	if err != nil {
		return err
	}
	muts := append([]relstore.Mutation{{Kind: relstore.MutInsert, Table: TableDeps, Row: depToRow(d)}}, bumps...)
	if err := g.audit.Batch(ctx, muts, audit.Event{
		Action: audit.ActionDepAdd, EntityType: audit.EntityModel,
		EntityID: ids.of(from), ModelID: ids.of(from),
		After: "depends on " + ids.of(to),
	}); err != nil {
		return fmt.Errorf("core: add dependency %s -> %s: %w", from, to, err)
	}
	return nil
}

// RemoveDependency deletes the edge from→to and, like any dependency
// change, versions the downstream side.
func (g *Registry) RemoveDependency(ctx context.Context, from, to uuid.UUID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, err := g.getModelLocked(ctx, from)
	if err != nil {
		return err
	}
	ids := idText{}
	bumps, _, _, err := g.versionBumpsLocked(ctx, m, ids, CauseDepRemoved, uuid.Nil, to)
	if err != nil {
		return err
	}
	muts := append([]relstore.Mutation{{Kind: relstore.MutDelete, Table: TableDeps, PK: depKey(from, to)}}, bumps...)
	return g.audit.Batch(ctx, muts, audit.Event{
		Action: audit.ActionDepRemove, EntityType: audit.EntityModel,
		EntityID: ids.of(from), ModelID: ids.of(from),
		Before: "depends on " + ids.of(to),
	})
}

// Upstreams returns the models that id directly depends on.
func (g *Registry) Upstreams(id uuid.UUID) ([]uuid.UUID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.upstreamsLocked(context.Background(), id)
}

// Downstreams returns the models that directly depend on id.
func (g *Registry) Downstreams(id uuid.UUID) ([]uuid.UUID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.downstreamsLocked(context.Background(), id)
}

// TransitiveDownstreams returns every model reachable by following
// "depends on id" edges — the blast radius of changing id, which is the
// holistic view the paper motivates.
func (g *Registry) TransitiveDownstreams(id uuid.UUID) ([]uuid.UUID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	set, err := g.transitiveDownstreamsLocked(context.Background(), id)
	if err != nil {
		return nil, err
	}
	return sortedIDs(set), nil
}

func (g *Registry) upstreamsLocked(ctx context.Context, id uuid.UUID) ([]uuid.UUID, error) {
	return g.depEdges(ctx, "from_model", id, depCol.toModel)
}

func (g *Registry) downstreamsLocked(ctx context.Context, id uuid.UUID) ([]uuid.UUID, error) {
	return g.depEdges(ctx, "to_model", id, depCol.fromModel)
}

// depEdges returns the models at column want of the edges whose column
// matchField holds id.
func (g *Registry) depEdges(ctx context.Context, matchField string, id uuid.UUID, want int) ([]uuid.UUID, error) {
	return selectAs(ctx, g.dal.Meta(), relstore.Query{
		Table:   TableDeps,
		Where:   []relstore.Constraint{{Field: matchField, Op: relstore.OpEq, Value: relstore.String(id.String())}},
		OrderBy: "created",
	}, func(r relstore.Tuple) (uuid.UUID, error) {
		u, err := uuid.Parse(r[want].Str)
		if err != nil {
			return uuid.Nil, fmt.Errorf("core: corrupt dependency row: %w", err)
		}
		return u, nil
	})
}

func (g *Registry) transitiveUpstreamsLocked(ctx context.Context, id uuid.UUID) (map[uuid.UUID]bool, error) {
	return g.closure(ctx, id, g.upstreamsLocked)
}

func (g *Registry) transitiveDownstreamsLocked(ctx context.Context, id uuid.UUID) (map[uuid.UUID]bool, error) {
	return g.closure(ctx, id, g.downstreamsLocked)
}

// closure BFSes from start (exclusive) following step.
func (g *Registry) closure(ctx context.Context, start uuid.UUID, step func(context.Context, uuid.UUID) ([]uuid.UUID, error)) (map[uuid.UUID]bool, error) {
	seen := make(map[uuid.UUID]bool)
	frontier := []uuid.UUID{start}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		next, err := step(ctx, cur)
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

// versionBumpsLocked builds the mutations for one change to model m, as
// the caller read it: a new version record for m, promoted to production
// (its owner made the change deliberately), plus non-production
// dep_update records for every transitive downstream. It returns m's new
// version and the one it demoted (nil when m had none).
func (g *Registry) versionBumpsLocked(ctx context.Context, m *Model, ids idText, cause VersionCause, instanceID, triggeredBy uuid.UUID) (muts []relstore.Mutation, prod, demoted *VersionRecord, err error) {
	muts, prod, demoted, err = g.bumpOneLocked(ctx, m, ids, cause, instanceID, triggeredBy, true)
	if err != nil {
		return nil, nil, nil, err
	}
	down, err := g.transitiveDownstreamsLocked(ctx, m.ID)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, d := range sortedIDs(down) {
		dm, err := g.getModelLocked(ctx, d)
		if err != nil {
			return nil, nil, nil, err
		}
		more, _, _, err := g.bumpOneLocked(ctx, dm, ids, CauseDepUpdate, uuid.Nil, m.ID, false)
		if err != nil {
			return nil, nil, nil, err
		}
		muts = append(muts, more...)
	}
	return muts, prod, demoted, nil
}

// bumpOneLocked creates the next version record v for model m, reading the
// denormalized minor counter off the model row so the bump is O(1) in the
// model's history length, and updates m to match. When production is true
// it also demotes m's current production record, returned as demoted, and
// repoints m at v.
func (g *Registry) bumpOneLocked(ctx context.Context, m *Model, ids idText, cause VersionCause, instanceID, triggeredBy uuid.UUID, production bool) (muts []relstore.Mutation, v, demoted *VersionRecord, err error) {
	v = &VersionRecord{
		ID:          g.gen.New(),
		ModelID:     m.ID,
		Major:       m.Major,
		Minor:       m.Minor + 1,
		Cause:       cause,
		InstanceID:  instanceID,
		TriggeredBy: triggeredBy,
		Created:     g.now(),
		Production:  production,
	}
	if production {
		if muts, demoted, err = g.demoteLocked(ctx, m, ids); err != nil {
			return nil, nil, nil, err
		}
		m.ProductionVersion = v.ID
	}
	m.Minor = v.Minor
	muts = append(muts,
		relstore.Mutation{Kind: relstore.MutInsert, Table: TableVersions, Row: versionToRow(v, ids)},
		relstore.Mutation{Kind: relstore.MutUpdate, Table: TableModels, Row: modelToRow(m, ids)},
	)
	return muts, v, demoted, nil
}

// demoteLocked returns the update that clears the production flag of m's
// production version, and that version; neither when m has none.
func (g *Registry) demoteLocked(ctx context.Context, m *Model, ids idText) ([]relstore.Mutation, *VersionRecord, error) {
	if m.ProductionVersion.IsNil() {
		return nil, nil, nil
	}
	cur, err := g.versionByIDLocked(ctx, m.ProductionVersion)
	if err != nil {
		return nil, nil, err
	}
	cur.Production = false
	return []relstore.Mutation{{Kind: relstore.MutUpdate, Table: TableVersions, Row: versionToRow(cur, ids)}}, cur, nil
}

// versionText is how an audit event names a version record: "v1.2 (id)",
// or "none".
func versionText(v *VersionRecord) string {
	if v == nil {
		return "none"
	}
	return fmt.Sprintf("v%d.%d (%s)", v.Major, v.Minor, v.ID)
}

// versionByIDLocked fetches one version record by primary key.
func (g *Registry) versionByIDLocked(ctx context.Context, id uuid.UUID) (*VersionRecord, error) {
	row, err := g.dal.Meta().GetTuple(ctx, TableVersions, id.String())
	if err != nil {
		return nil, fmt.Errorf("%w: version %s", ErrNotFound, id)
	}
	return rowToVersion(row)
}

// Version fetches one version record by primary key.
func (g *Registry) Version(id uuid.UUID) (*VersionRecord, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.versionByIDLocked(context.Background(), id)
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
// or ErrNotFound if none is. The lookup runs under the registry lock, so
// its span covers the whole resolve (model row + version row) rather than
// individual table reads.
func (g *Registry) ProductionVersion(ctx context.Context, id uuid.UUID) (*VersionRecord, error) {
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
	m, err := g.getModelLocked(context.Background(), id)
	if err != nil {
		return nil, err
	}
	if m.ProductionVersion.IsNil() {
		return nil, nil
	}
	return g.versionByIDLocked(context.Background(), m.ProductionVersion)
}

// Promote marks a version record as the production version for its model,
// demoting whichever held that role — the owner's explicit upgrade step
// after a dependency update (paper §3.4.2).
func (g *Registry) Promote(ctx context.Context, versionID uuid.UUID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.promoteLocked(ctx, versionID)
}

// PromoteInstanceCtx promotes the version record realized by an instance —
// what a deployment callback holds is an instance id, so this resolves it
// to the version the upload minted (the newest one, should a model ever
// carry several records for one instance) and promotes that. A
// rule-driven deployment passes the firing rule's context, so the
// promotion event links back to the trace that triggered it.
func (g *Registry) PromoteInstanceCtx(ctx context.Context, instanceID uuid.UUID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	in, err := g.GetInstance(ctx, instanceID)
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
	v, err := g.versionByIDLocked(ctx, versionID)
	if err != nil {
		return err
	}
	if v.Production {
		return nil
	}
	m, err := g.getModelLocked(ctx, v.ModelID)
	if err != nil {
		return err
	}
	ids := idText{}
	muts, demoted, err := g.demoteLocked(ctx, m, ids)
	if err != nil {
		return err
	}
	v.Production = true
	m.ProductionVersion = v.ID
	muts = append(muts,
		relstore.Mutation{Kind: relstore.MutUpdate, Table: TableVersions, Row: versionToRow(v, ids)},
		relstore.Mutation{Kind: relstore.MutUpdate, Table: TableModels, Row: modelToRow(m, ids)},
	)
	// The event lands on the realized instance when the version has one
	// (so an instance timeline shows its promotions) and joins the model
	// timeline through model_id either way.
	entityType, entityID := audit.EntityModel, ids.of(v.ModelID)
	if !v.InstanceID.IsNil() {
		entityType, entityID = audit.EntityInstance, ids.of(v.InstanceID)
	}
	return g.audit.Batch(ctx, muts, audit.Event{
		Action: audit.ActionPromote, EntityType: entityType,
		EntityID: entityID, ModelID: ids.of(v.ModelID),
		Before: versionText(demoted), After: versionText(v),
	})
}

func sortedIDs(set map[uuid.UUID]bool) []uuid.UUID {
	out := make([]uuid.UUID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
