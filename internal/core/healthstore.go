package core

import (
	"context"
	"fmt"
	"time"

	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// This file persists windowed serving-health snapshots (paper §3.6 made
// continuous): the gateway flushes per-model distribution sketches in
// fixed time windows, galleryd stores them through the DAL, and the
// health monitor re-reads them to compare live traffic against a
// reference distribution. Sketches are stored as their JSON wire form —
// they are opaque to the metadata store and only the monitor interprets
// them.

// HealthWindow is one flushed observation window for one model.
type HealthWindow struct {
	ID          uuid.UUID
	ModelID     uuid.UUID
	InstanceID  uuid.UUID // serving instance during the window; may be nil
	Gateway     string    // reporting gateway, informational
	Start, End  time.Time
	Requests    int64
	StaleServes int64
	// ValuesSketch and LatencySketch hold sketch.Snapshot JSON.
	ValuesSketch  string
	LatencySketch string
}

// InsertHealthWindow stores one observation window, assigning its ID.
func (g *Registry) InsertHealthWindow(ctx context.Context, w *HealthWindow) error {
	if w.ModelID.IsNil() {
		return fmt.Errorf("%w: health window needs a model id", ErrBadSpec)
	}
	if w.End.Before(w.Start) {
		return fmt.Errorf("%w: health window ends before it starts", ErrBadSpec)
	}
	w.ID = g.gen.New()
	return g.dal.Meta().InsertCtx(ctx, TableHealthWindows, healthWindowToRow(w))
}

// HealthWindows returns a model's stored observation windows, oldest
// first. Limit > 0 keeps only the most recent windows.
func (g *Registry) HealthWindows(modelID uuid.UUID, limit int) ([]*HealthWindow, error) {
	out, err := selectAs(context.Background(), g.dal.Meta(), relstore.Query{
		Table: TableHealthWindows,
		Where: []relstore.Constraint{
			{Field: "model_id", Op: relstore.OpEq, Value: relstore.String(modelID.String())},
		},
		OrderBy: "window_end",
	}, rowToHealthWindow)
	if err != nil {
		return nil, err
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out, nil
}

// HealthWindowModels lists the distinct model IDs that have stored
// health windows — the monitor's recovery scan after a restart.
func (g *Registry) HealthWindowModels() ([]uuid.UUID, error) {
	seen := make(map[uuid.UUID]bool)
	var out []uuid.UUID
	_, err := g.dal.Meta().SelectFunc(context.Background(), relstore.Query{Table: TableHealthWindows}, func(r relstore.Row) bool {
		id, err := uuid.Parse(r["model_id"].Str)
		if err != nil {
			return true // skip unparseable legacy rows rather than fail recovery
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PruneHealthWindows deletes a model's oldest windows beyond keep,
// bounding storage per model. It returns how many rows were removed.
func (g *Registry) PruneHealthWindows(ctx context.Context, modelID uuid.UUID, keep int) (int, error) {
	if keep < 0 {
		keep = 0
	}
	ids, err := selectAs(ctx, g.dal.Meta(), relstore.Query{
		Table: TableHealthWindows,
		Where: []relstore.Constraint{
			{Field: "model_id", Op: relstore.OpEq, Value: relstore.String(modelID.String())},
		},
		OrderBy: "window_end",
	}, func(r relstore.Row) (string, error) { return r["id"].Str, nil })
	if err != nil {
		return 0, err
	}
	excess := len(ids) - keep
	if excess <= 0 {
		return 0, nil
	}
	muts := make([]relstore.Mutation, 0, excess)
	for _, id := range ids[:excess] {
		muts = append(muts, relstore.Mutation{
			Kind: relstore.MutDelete, Table: TableHealthWindows, PK: id,
		})
	}
	if err := g.dal.Meta().BatchCtx(ctx, muts); err != nil {
		return 0, err
	}
	return excess, nil
}

func healthWindowToRow(w *HealthWindow) relstore.Row {
	return relstore.Row{
		"id":             relstore.String(w.ID.String()),
		"model_id":       relstore.String(w.ModelID.String()),
		"instance_id":    relstore.String(uuidOrEmpty(w.InstanceID)),
		"gateway":        relstore.String(w.Gateway),
		"window_start":   relstore.Time(w.Start),
		"window_end":     relstore.Time(w.End),
		"requests":       relstore.Int(w.Requests),
		"stale_serves":   relstore.Int(w.StaleServes),
		"values_sketch":  relstore.String(w.ValuesSketch),
		"latency_sketch": relstore.String(w.LatencySketch),
	}
}

func rowToHealthWindow(r relstore.Row) (*HealthWindow, error) {
	id, err := uuid.Parse(r["id"].Str)
	if err != nil {
		return nil, fmt.Errorf("core: health window row has bad id: %w", err)
	}
	modelID, err := uuid.Parse(r["model_id"].Str)
	if err != nil {
		return nil, fmt.Errorf("core: health window row has bad model_id: %w", err)
	}
	return &HealthWindow{
		ID:            id,
		ModelID:       modelID,
		InstanceID:    parseOrNil(r["instance_id"].Str),
		Gateway:       r["gateway"].Str,
		Start:         r["window_start"].Time,
		End:           r["window_end"].Time,
		Requests:      r["requests"].Int,
		StaleServes:   r["stale_serves"].Int,
		ValuesSketch:  r["values_sketch"].Str,
		LatencySketch: r["latency_sketch"].Str,
	}, nil
}
