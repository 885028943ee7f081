package relstore

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"gallery/internal/wal"
)

func TestCompactShrinksLogAndPreservesState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(modelsSchema()); err != nil {
		t.Fatal(err)
	}
	// Generate churn: inserts, updates, deletes — lots of dead log records.
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("i%03d", i)
		if err := s.InsertCtx(context.Background(), "instances", row(id, "b", "sf", t0, 0.1)); err != nil {
			t.Fatal(err)
		}
		for rev := 0; rev < 5; rev++ {
			if err := s.Update(context.Background(), "instances", row(id, "b", fmt.Sprintf("city%d", rev), t0, 0.1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 100; i++ {
		if err := s.Delete(context.Background(), "instances", fmt.Sprintf("i%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.LogSize()
	if err := s.Compact(path); err != nil {
		t.Fatal(err)
	}
	after := s.LogSize()
	if after >= before/2 {
		t.Fatalf("compaction barely shrank the log: %d -> %d", before, after)
	}

	// State intact in the live store.
	n, _ := s.Len("instances")
	if n != 100 {
		t.Fatalf("rows after compaction = %d", n)
	}
	got, err := s.Get(context.Background(), "instances", "i150")
	if err != nil || got["city"].Str != "city4" {
		t.Fatalf("row after compaction = %v, %v", got, err)
	}

	// Post-compaction writes land in the new log and everything recovers.
	if err := s.InsertCtx(context.Background(), "instances", row("post", "b", "sf", t0, 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, _ = s2.Len("instances")
	if n != 101 {
		t.Fatalf("recovered rows = %d, want 101", n)
	}
	got, err = s2.Get(context.Background(), "instances", "i150")
	if err != nil || got["city"].Str != "city4" {
		t.Fatalf("recovered row = %v, %v", got, err)
	}
	// Indexes rebuilt correctly after recovery from a compacted log.
	rows, ex, err := s2.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpEq, Value: String("city4")}},
	})
	if err != nil || ex.Index != "city" {
		t.Fatalf("index query: %v, %+v", err, ex)
	}
	if len(rows) != 100 {
		t.Fatalf("index query found %d rows", len(rows))
	}
}

func TestCompactVolatileNoOp(t *testing.T) {
	s := NewMemory()
	if err := s.Compact("ignored"); err != nil {
		t.Fatalf("volatile compact = %v", err)
	}
	if s.LogSize() != 0 {
		t.Fatal("volatile store reports a log size")
	}
}

func TestCompactEmptyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(path); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(modelsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertCtx(context.Background(), "instances", row("x", "b", "sf", t0, 0.1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.Len("instances"); n != 1 {
		t.Fatalf("rows = %d", n)
	}
}
