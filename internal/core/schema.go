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

func modelToRow(m *Model) relstore.Row {
	return relstore.Row{
		"id":                 relstore.String(m.ID.String()),
		"base_version_id":    relstore.String(m.BaseVersionID),
		"project":            relstore.String(m.Project),
		"name":               relstore.String(m.Name),
		"owner":              relstore.String(m.Owner),
		"team":               relstore.String(m.Team),
		"domain":             relstore.String(m.Domain),
		"description":        relstore.String(m.Description),
		"major":              relstore.Int(int64(m.Major)),
		"minor":              relstore.Int(int64(m.Minor)),
		"production_version": relstore.String(uuidOrEmpty(m.ProductionVersion)),
		"prev_model":         relstore.String(uuidOrEmpty(m.PrevModel)),
		"next_model":         relstore.String(uuidOrEmpty(m.NextModel)),
		"created":            relstore.Time(m.Created),
		"deprecated":         relstore.Bool(m.Deprecated),
	}
}

func rowToModel(r relstore.Row) (*Model, error) {
	id, err := uuid.Parse(r["id"].Str)
	if err != nil {
		return nil, fmt.Errorf("core: model row has bad id: %w", err)
	}
	m := &Model{
		ID:            id,
		BaseVersionID: r["base_version_id"].Str,
		Project:       r["project"].Str,
		Name:          r["name"].Str,
		Owner:         r["owner"].Str,
		Team:          r["team"].Str,
		Domain:        r["domain"].Str,
		Description:   r["description"].Str,
		Major:         int(r["major"].Int),
		Minor:         int(r["minor"].Int),
		Created:       r["created"].Time,
		Deprecated:    r["deprecated"].Bool,
	}
	m.ProductionVersion = parseOrNil(r["production_version"].Str)
	m.PrevModel = parseOrNil(r["prev_model"].Str)
	m.NextModel = parseOrNil(r["next_model"].Str)
	return m, nil
}

func instanceToRow(in *Instance) relstore.Row {
	return relstore.Row{
		"id":              relstore.String(in.ID.String()),
		"model_id":        relstore.String(in.ModelID.String()),
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

func rowToInstance(r relstore.Row) (*Instance, error) {
	id, err := uuid.Parse(r["id"].Str)
	if err != nil {
		return nil, fmt.Errorf("core: instance row has bad id: %w", err)
	}
	modelID, err := uuid.Parse(r["model_id"].Str)
	if err != nil {
		return nil, fmt.Errorf("core: instance row has bad model_id: %w", err)
	}
	return &Instance{
		ID:            id,
		ModelID:       modelID,
		BaseVersionID: r["base_version_id"].Str,
		Project:       r["project"].Str,
		Name:          r["name"].Str,
		City:          r["city"].Str,
		Framework:     r["framework"].Str,
		TrainingData:  r["training_data"].Str,
		CodePointer:   r["code_pointer"].Str,
		Seed:          r["seed"].Int,
		Epochs:        r["epochs"].Int,
		Hyperparams:   r["hyperparams"].Str,
		Features:      r["features"].Str,
		BlobLocation:  r["blob_location"].Str,
		Created:       r["created"].Time,
		Deprecated:    r["deprecated"].Bool,
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

func rowToMetric(r relstore.Row) (*Metric, error) {
	id, err := uuid.Parse(r["id"].Str)
	if err != nil {
		return nil, fmt.Errorf("core: metric row has bad id: %w", err)
	}
	instID, err := uuid.Parse(r["instance_id"].Str)
	if err != nil {
		return nil, fmt.Errorf("core: metric row has bad instance_id: %w", err)
	}
	return &Metric{
		ID:         id,
		InstanceID: instID,
		ModelID:    parseOrNil(r["model_id"].Str),
		Name:       r["name"].Str,
		Scope:      Scope(r["scope"].Str),
		Value:      r["value"].Float,
		At:         r["created"].Time,
	}, nil
}

func versionToRow(v *VersionRecord) relstore.Row {
	return relstore.Row{
		"id":           relstore.String(v.ID.String()),
		"model_id":     relstore.String(v.ModelID.String()),
		"major":        relstore.Int(int64(v.Major)),
		"minor":        relstore.Int(int64(v.Minor)),
		"cause":        relstore.String(string(v.Cause)),
		"instance_id":  relstore.String(uuidOrEmpty(v.InstanceID)),
		"triggered_by": relstore.String(uuidOrEmpty(v.TriggeredBy)),
		"created":      relstore.Time(v.Created),
		"production":   relstore.Bool(v.Production),
	}
}

func rowToVersion(r relstore.Row) (*VersionRecord, error) {
	id, err := uuid.Parse(r["id"].Str)
	if err != nil {
		return nil, fmt.Errorf("core: version row has bad id: %w", err)
	}
	modelID, err := uuid.Parse(r["model_id"].Str)
	if err != nil {
		return nil, fmt.Errorf("core: version row has bad model_id: %w", err)
	}
	return &VersionRecord{
		ID:          id,
		ModelID:     modelID,
		Major:       int(r["major"].Int),
		Minor:       int(r["minor"].Int),
		Cause:       VersionCause(r["cause"].Str),
		InstanceID:  parseOrNil(r["instance_id"].Str),
		TriggeredBy: parseOrNil(r["triggered_by"].Str),
		Created:     r["created"].Time,
		Production:  r["production"].Bool,
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
