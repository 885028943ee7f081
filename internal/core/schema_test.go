package core

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gallery/internal/blobstore"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

// singleColumnSchemas is Schemas as it was before the composite indexes:
// instances indexed on city alone, metrics on name alone.
func singleColumnSchemas() []relstore.Schema {
	out := Schemas()
	for i := range out {
		switch out[i].Table {
		case TableInstances:
			out[i].Indexes = []string{"model_id", "base_version_id", "project", "name", "city", "created"}
		case TableMetrics:
			out[i].Indexes = []string{"instance_id", "model_id", "name", "created"}
		}
	}
	return out
}

// TestSingleColumnLogOpensUnderCompositeIndexes: a log written with the
// single-column indexes opens under Schemas, which applies the index
// change in place. Searches then answer as their ForceScan twins do,
// through the composite indexes, and again after a restart, which logs
// nothing more, and after a Compact.
func TestSingleColumnLogOpensUnderCompositeIndexes(t *testing.T) {
	h := newHarness(t)
	for i := 0; i < 30; i++ {
		m := h.model(t, fmt.Sprintf("base%d", i))
		in := h.upload(t, m, []string{"sf", "nyc", "la"}[i%3], []byte{byte(i)})
		if err := h.g.InsertMetrics(in.ID, ScopeValidation, map[string]float64{"mape": float64(i%10) / 100, "bias": 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "meta.wal")
	old, err := relstore.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range singleColumnSchemas() {
		if err := old.CreateTable(sc); err != nil {
			t.Fatal(err)
		}
		rows, err := h.g.dal.Meta().Select(context.Background(), relstore.Query{Table: sc.Table})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := old.InsertCtx(context.Background(), sc.Table, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	open := func() (*Registry, *relstore.Store) {
		t.Helper()
		meta, err := relstore.Open(path, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { meta.Close() })
		g, err := New(meta, blobstore.NewMemory(blobstore.Options{}), Options{Clock: h.clk, UUIDs: uuid.NewSeeded(2)})
		if err != nil {
			t.Fatalf("open a log with single-column indexes: %v", err)
		}
		return g, meta
	}
	check := func(when string, g *Registry) {
		t.Helper()
		for _, f := range []InstanceFilter{
			{City: "sf", Limit: 4},
			{City: "nyc", MetricName: "mape", MetricOp: relstore.OpLt, MetricValue: 0.05},
			{MetricName: "mape", MetricOp: relstore.OpGe, MetricValue: 0.07, Limit: 3},
			{City: "la", BaseVersionID: "base2"},
		} {
			got, err := g.SearchInstances(f)
			if err != nil {
				t.Fatal(err)
			}
			f.ForceScan = true
			want, err := g.SearchInstances(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !slices.EqualFunc(got, want, func(a, b *Instance) bool { return a.ID == b.ID }) {
				t.Fatalf("%s: %+v found %d instances, its ForceScan twin %d", when, f, len(got), len(want))
			}
		}
		for want, q := range map[string]relstore.Query{
			"city,created": {Table: TableInstances, OrderBy: "created", Desc: true, Limit: 4,
				Where: []relstore.Constraint{{Field: "city", Op: relstore.OpEq, Value: relstore.String("sf")}}},
			"name,value": {Table: TableMetrics, Where: []relstore.Constraint{
				{Field: "name", Op: relstore.OpEq, Value: relstore.String("mape")},
				{Field: "value", Op: relstore.OpLt, Value: relstore.Float(0.05)}}},
		} {
			rows, ex, err := g.dal.Meta().SelectExplain(q)
			if err != nil || ex.Index != want || ex.Scanned != len(rows) {
				t.Fatalf("%s: %s read through %+v (%v), want %s scanning only its %d rows", when, q.Table, ex, err, want, len(rows))
			}
		}
	}

	g, meta := open()
	check("after the upgrade", g)
	size := meta.LogSize()
	if err := meta.Close(); err != nil {
		t.Fatal(err)
	}
	g, meta = open()
	check("after a restart", g)
	if meta.LogSize() != size {
		t.Fatalf("the restart grew the log from %d to %d bytes", size, meta.LogSize())
	}
	if err := meta.Compact(path); err != nil {
		t.Fatal(err)
	}
	if err := meta.Close(); err != nil {
		t.Fatal(err)
	}
	g, _ = open()
	check("after a Compact", g)
}
