package core

import (
	"fmt"

	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// Table names in the metadata store.
const (
	TableModels        = "models"
	TableInstances     = "instances"
	TableMetrics       = "metrics"
	TableVersions      = "versions"
	TableDeps          = "deps"
	TableHealthWindows = "health_windows"
)

// Schemas returns the full Gallery metadata schema set. The registry
// declares them at startup; CreateTable is idempotent over recovered
// stores, and applies a change of indexes alone to them in place.
func Schemas() []relstore.Schema {
	return []relstore.Schema{
		{
			Table: TableModels,
			Columns: []relstore.Column{
				{Name: "id", Kind: relstore.KindString},
				{Name: "base_version_id", Kind: relstore.KindString},
				{Name: "project", Kind: relstore.KindString, Nullable: true},
				{Name: "name", Kind: relstore.KindString, Nullable: true},
				{Name: "owner", Kind: relstore.KindString, Nullable: true},
				{Name: "team", Kind: relstore.KindString, Nullable: true},
				{Name: "domain", Kind: relstore.KindString, Nullable: true},
				{Name: "description", Kind: relstore.KindString, Nullable: true},
				{Name: "major", Kind: relstore.KindInt},
				{Name: "minor", Kind: relstore.KindInt},
				{Name: "production_version", Kind: relstore.KindString, Nullable: true},
				{Name: "prev_model", Kind: relstore.KindString, Nullable: true},
				{Name: "next_model", Kind: relstore.KindString, Nullable: true},
				{Name: "created", Kind: relstore.KindTime},
				{Name: "deprecated", Kind: relstore.KindBool},
			},
			Key:     "id",
			Indexes: []string{"base_version_id", "project", "name", "domain"},
		},
		{
			Table: TableInstances,
			Columns: []relstore.Column{
				{Name: "id", Kind: relstore.KindString},
				{Name: "model_id", Kind: relstore.KindString},
				{Name: "base_version_id", Kind: relstore.KindString},
				{Name: "project", Kind: relstore.KindString, Nullable: true},
				{Name: "name", Kind: relstore.KindString, Nullable: true},
				{Name: "city", Kind: relstore.KindString, Nullable: true},
				{Name: "framework", Kind: relstore.KindString, Nullable: true},
				{Name: "training_data", Kind: relstore.KindString, Nullable: true},
				{Name: "code_pointer", Kind: relstore.KindString, Nullable: true},
				{Name: "seed", Kind: relstore.KindInt, Nullable: true},
				{Name: "epochs", Kind: relstore.KindInt, Nullable: true},
				{Name: "hyperparams", Kind: relstore.KindString, Nullable: true},
				{Name: "features", Kind: relstore.KindString, Nullable: true},
				{Name: "blob_location", Kind: relstore.KindString, Nullable: true},
				{Name: "created", Kind: relstore.KindTime},
				{Name: "deprecated", Kind: relstore.KindBool},
			},
			Key: "id",
			// (city, created) answers "this city's instances, newest
			// first" by streaming, and city equality alone as a prefix.
			Indexes: []string{"model_id", "base_version_id", "project", "name", "city,created", "created"},
		},
		{
			Table: TableMetrics,
			Columns: []relstore.Column{
				{Name: "id", Kind: relstore.KindString},
				{Name: "instance_id", Kind: relstore.KindString},
				{Name: "model_id", Kind: relstore.KindString},
				{Name: "name", Kind: relstore.KindString},
				{Name: "scope", Kind: relstore.KindString},
				{Name: "value", Kind: relstore.KindFloat},
				{Name: "created", Kind: relstore.KindTime},
			},
			Key: "id",
			// (name, value) makes a search's metric condition one range
			// seek; name equality alone is its prefix.
			Indexes: []string{"instance_id", "model_id", "name,value", "created"},
		},
		{
			Table: TableVersions,
			Columns: []relstore.Column{
				{Name: "id", Kind: relstore.KindString},
				{Name: "model_id", Kind: relstore.KindString},
				{Name: "major", Kind: relstore.KindInt},
				{Name: "minor", Kind: relstore.KindInt},
				{Name: "cause", Kind: relstore.KindString},
				{Name: "instance_id", Kind: relstore.KindString, Nullable: true},
				{Name: "triggered_by", Kind: relstore.KindString, Nullable: true},
				{Name: "created", Kind: relstore.KindTime},
				{Name: "production", Kind: relstore.KindBool},
			},
			Key:     "id",
			Indexes: []string{"model_id"},
		},
		{
			Table: TableDeps,
			Columns: []relstore.Column{
				{Name: "id", Kind: relstore.KindString}, // "from|to"
				{Name: "from_model", Kind: relstore.KindString},
				{Name: "to_model", Kind: relstore.KindString},
				{Name: "created", Kind: relstore.KindTime},
			},
			Key:     "id",
			Indexes: []string{"from_model", "to_model"},
		},
		{
			Table: TableHealthWindows,
			Columns: []relstore.Column{
				{Name: "id", Kind: relstore.KindString},
				{Name: "model_id", Kind: relstore.KindString},
				{Name: "instance_id", Kind: relstore.KindString, Nullable: true},
				{Name: "gateway", Kind: relstore.KindString, Nullable: true},
				{Name: "window_start", Kind: relstore.KindTime},
				{Name: "window_end", Kind: relstore.KindTime},
				{Name: "requests", Kind: relstore.KindInt},
				{Name: "stale_serves", Kind: relstore.KindInt},
				{Name: "values_sketch", Kind: relstore.KindString, Nullable: true},
				{Name: "latency_sketch", Kind: relstore.KindString, Nullable: true},
			},
			Key:     "id",
			Indexes: []string{"model_id", "window_end"},
		},
	}
}

// --- row <-> struct conversions ---

// Each column's position in a stored row (relstore.Tuple), resolved once
// at start-up: the converters read cells by position, not by name.
var (
	modelCol = struct{ id, baseVersionID, project, name, owner, team, domain, description, major, minor, productionVersion, prevModel, nextModel, created, deprecated int }{
		id:                col(TableModels, "id"),
		baseVersionID:     col(TableModels, "base_version_id"),
		project:           col(TableModels, "project"),
		name:              col(TableModels, "name"),
		owner:             col(TableModels, "owner"),
		team:              col(TableModels, "team"),
		domain:            col(TableModels, "domain"),
		description:       col(TableModels, "description"),
		major:             col(TableModels, "major"),
		minor:             col(TableModels, "minor"),
		productionVersion: col(TableModels, "production_version"),
		prevModel:         col(TableModels, "prev_model"),
		nextModel:         col(TableModels, "next_model"),
		created:           col(TableModels, "created"),
		deprecated:        col(TableModels, "deprecated"),
	}
	instCol = struct{ id, modelID, baseVersionID, project, name, city, framework, trainingData, codePointer, seed, epochs, hyperparams, features, blobLocation, created, deprecated int }{
		id:            col(TableInstances, "id"),
		modelID:       col(TableInstances, "model_id"),
		baseVersionID: col(TableInstances, "base_version_id"),
		project:       col(TableInstances, "project"),
		name:          col(TableInstances, "name"),
		city:          col(TableInstances, "city"),
		framework:     col(TableInstances, "framework"),
		trainingData:  col(TableInstances, "training_data"),
		codePointer:   col(TableInstances, "code_pointer"),
		seed:          col(TableInstances, "seed"),
		epochs:        col(TableInstances, "epochs"),
		hyperparams:   col(TableInstances, "hyperparams"),
		features:      col(TableInstances, "features"),
		blobLocation:  col(TableInstances, "blob_location"),
		created:       col(TableInstances, "created"),
		deprecated:    col(TableInstances, "deprecated"),
	}
	metricCol = struct{ id, instanceID, modelID, name, scope, value, created int }{
		id:         col(TableMetrics, "id"),
		instanceID: col(TableMetrics, "instance_id"),
		modelID:    col(TableMetrics, "model_id"),
		name:       col(TableMetrics, "name"),
		scope:      col(TableMetrics, "scope"),
		value:      col(TableMetrics, "value"),
		created:    col(TableMetrics, "created"),
	}
	versionCol = struct{ id, modelID, major, minor, cause, instanceID, triggeredBy, created, production int }{
		id:          col(TableVersions, "id"),
		modelID:     col(TableVersions, "model_id"),
		major:       col(TableVersions, "major"),
		minor:       col(TableVersions, "minor"),
		cause:       col(TableVersions, "cause"),
		instanceID:  col(TableVersions, "instance_id"),
		triggeredBy: col(TableVersions, "triggered_by"),
		created:     col(TableVersions, "created"),
		production:  col(TableVersions, "production"),
	}
	depCol = struct{ fromModel, toModel int }{
		fromModel: col(TableDeps, "from_model"),
		toModel:   col(TableDeps, "to_model"),
	}
	hwCol = struct{ id, modelID, instanceID, gateway, windowStart, windowEnd, requests, staleServes, valuesSketch, latencySketch int }{
		id:            col(TableHealthWindows, "id"),
		modelID:       col(TableHealthWindows, "model_id"),
		instanceID:    col(TableHealthWindows, "instance_id"),
		gateway:       col(TableHealthWindows, "gateway"),
		windowStart:   col(TableHealthWindows, "window_start"),
		windowEnd:     col(TableHealthWindows, "window_end"),
		requests:      col(TableHealthWindows, "requests"),
		staleServes:   col(TableHealthWindows, "stale_serves"),
		valuesSketch:  col(TableHealthWindows, "values_sketch"),
		latencySketch: col(TableHealthWindows, "latency_sketch"),
	}
)

// col returns the position of a column of one of Schemas' tables.
func col(table, name string) int {
	for _, sc := range Schemas() {
		if sc.Table == table {
			if i := sc.Pos(name); i >= 0 {
				return i
			}
		}
	}
	panic(fmt.Sprintf("core: table %s declares no column %s", table, name))
}

func modelToRow(m *Model, ids idText) relstore.Row {
	return relstore.Row{
		"id":                 relstore.String(ids.of(m.ID)),
		"base_version_id":    relstore.String(m.BaseVersionID),
		"project":            relstore.String(m.Project),
		"name":               relstore.String(m.Name),
		"owner":              relstore.String(m.Owner),
		"team":               relstore.String(m.Team),
		"domain":             relstore.String(m.Domain),
		"description":        relstore.String(m.Description),
		"major":              relstore.Int(int64(m.Major)),
		"minor":              relstore.Int(int64(m.Minor)),
		"production_version": relstore.String(ids.of(m.ProductionVersion)),
		"prev_model":         relstore.String(ids.of(m.PrevModel)),
		"next_model":         relstore.String(ids.of(m.NextModel)),
		"created":            relstore.Time(m.Created),
		"deprecated":         relstore.Bool(m.Deprecated),
	}
}

func rowToModel(r relstore.Tuple) (*Model, error) {
	id, err := uuid.Parse(r[modelCol.id].Str)
	if err != nil {
		return nil, fmt.Errorf("core: model row has bad id: %w", err)
	}
	m := &Model{
		ID:            id,
		BaseVersionID: r[modelCol.baseVersionID].Str,
		Project:       r[modelCol.project].Str,
		Name:          r[modelCol.name].Str,
		Owner:         r[modelCol.owner].Str,
		Team:          r[modelCol.team].Str,
		Domain:        r[modelCol.domain].Str,
		Description:   r[modelCol.description].Str,
		Major:         int(r[modelCol.major].Int()),
		Minor:         int(r[modelCol.minor].Int()),
		Created:       r[modelCol.created].Time(),
		Deprecated:    r[modelCol.deprecated].Bool(),
	}
	m.ProductionVersion = parseOrNil(r[modelCol.productionVersion].Str)
	m.PrevModel = parseOrNil(r[modelCol.prevModel].Str)
	m.NextModel = parseOrNil(r[modelCol.nextModel].Str)
	return m, nil
}

func instanceToRow(in *Instance, ids idText) relstore.Row {
	return relstore.Row{
		"id":              relstore.String(ids.of(in.ID)),
		"model_id":        relstore.String(ids.of(in.ModelID)),
		"base_version_id": relstore.String(in.BaseVersionID),
		"project":         relstore.String(in.Project),
		"name":            relstore.String(in.Name),
		"city":            relstore.String(in.City),
		"framework":       relstore.String(in.Framework),
		"training_data":   relstore.String(in.TrainingData),
		"code_pointer":    relstore.String(in.CodePointer),
		"seed":            relstore.Int(in.Seed),
		"epochs":          relstore.Int(in.Epochs),
		"hyperparams":     relstore.String(in.Hyperparams),
		"features":        relstore.String(in.Features),
		"blob_location":   relstore.String(in.BlobLocation),
		"created":         relstore.Time(in.Created),
		"deprecated":      relstore.Bool(in.Deprecated),
	}
}

func rowToInstance(r relstore.Tuple) (*Instance, error) {
	id, err := uuid.Parse(r[instCol.id].Str)
	if err != nil {
		return nil, fmt.Errorf("core: instance row has bad id: %w", err)
	}
	modelID, err := uuid.Parse(r[instCol.modelID].Str)
	if err != nil {
		return nil, fmt.Errorf("core: instance row has bad model_id: %w", err)
	}
	return &Instance{
		ID:            id,
		ModelID:       modelID,
		BaseVersionID: r[instCol.baseVersionID].Str,
		Project:       r[instCol.project].Str,
		Name:          r[instCol.name].Str,
		City:          r[instCol.city].Str,
		Framework:     r[instCol.framework].Str,
		TrainingData:  r[instCol.trainingData].Str,
		CodePointer:   r[instCol.codePointer].Str,
		Seed:          r[instCol.seed].Int(),
		Epochs:        r[instCol.epochs].Int(),
		Hyperparams:   r[instCol.hyperparams].Str,
		Features:      r[instCol.features].Str,
		BlobLocation:  r[instCol.blobLocation].Str,
		Created:       r[instCol.created].Time(),
		Deprecated:    r[instCol.deprecated].Bool(),
	}, nil
}

func metricToRow(m *Metric) relstore.Row {
	return relstore.Row{
		"id":          relstore.String(m.ID.String()),
		"instance_id": relstore.String(m.InstanceID.String()),
		"model_id":    relstore.String(m.ModelID.String()),
		"name":        relstore.String(m.Name),
		"scope":       relstore.String(string(m.Scope)),
		"value":       relstore.Float(m.Value),
		"created":     relstore.Time(m.At),
	}
}

func rowToMetric(r relstore.Tuple) (*Metric, error) {
	id, err := uuid.Parse(r[metricCol.id].Str)
	if err != nil {
		return nil, fmt.Errorf("core: metric row has bad id: %w", err)
	}
	instID, err := uuid.Parse(r[metricCol.instanceID].Str)
	if err != nil {
		return nil, fmt.Errorf("core: metric row has bad instance_id: %w", err)
	}
	return &Metric{
		ID:         id,
		InstanceID: instID,
		ModelID:    parseOrNil(r[metricCol.modelID].Str),
		Name:       r[metricCol.name].Str,
		Scope:      Scope(r[metricCol.scope].Str),
		Value:      r[metricCol.value].Float(),
		At:         r[metricCol.created].Time(),
	}, nil
}

func versionToRow(v *VersionRecord, ids idText) relstore.Row {
	return relstore.Row{
		"id":           relstore.String(ids.of(v.ID)),
		"model_id":     relstore.String(ids.of(v.ModelID)),
		"major":        relstore.Int(int64(v.Major)),
		"minor":        relstore.Int(int64(v.Minor)),
		"cause":        relstore.String(string(v.Cause)),
		"instance_id":  relstore.String(ids.of(v.InstanceID)),
		"triggered_by": relstore.String(ids.of(v.TriggeredBy)),
		"created":      relstore.Time(v.Created),
		"production":   relstore.Bool(v.Production),
	}
}

func rowToVersion(r relstore.Tuple) (*VersionRecord, error) {
	id, err := uuid.Parse(r[versionCol.id].Str)
	if err != nil {
		return nil, fmt.Errorf("core: version row has bad id: %w", err)
	}
	modelID, err := uuid.Parse(r[versionCol.modelID].Str)
	if err != nil {
		return nil, fmt.Errorf("core: version row has bad model_id: %w", err)
	}
	return &VersionRecord{
		ID:          id,
		ModelID:     modelID,
		Major:       int(r[versionCol.major].Int()),
		Minor:       int(r[versionCol.minor].Int()),
		Cause:       VersionCause(r[versionCol.cause].Str),
		InstanceID:  parseOrNil(r[versionCol.instanceID].Str),
		TriggeredBy: parseOrNil(r[versionCol.triggeredBy].Str),
		Created:     r[versionCol.created].Time(),
		Production:  r[versionCol.production].Bool(),
	}, nil
}

func depToRow(d *Dependency) relstore.Row {
	return relstore.Row{
		"id":         relstore.String(depKey(d.From, d.To)),
		"from_model": relstore.String(d.From.String()),
		"to_model":   relstore.String(d.To.String()),
		"created":    relstore.Time(d.Created),
	}
}

func depKey(from, to uuid.UUID) string { return from.String() + "|" + to.String() }

// idText formats each ID one mutation names once, so the rows and audit
// events the mutation writes share one string per ID instead of holding a
// copy each.
type idText map[uuid.UUID]string

// of returns u formatted, or "" for the nil UUID.
func (t idText) of(u uuid.UUID) string {
	s, ok := t[u]
	if !ok {
		s = uuidOrEmpty(u)
		t[u] = s
	}
	return s
}

func uuidOrEmpty(u uuid.UUID) string {
	if u.IsNil() {
		return ""
	}
	return u.String()
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
