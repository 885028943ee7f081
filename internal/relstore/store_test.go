package relstore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gallery/internal/wal"
)

// modelsSchema is a miniature of Gallery's model-instance table.
func modelsSchema() Schema {
	return Schema{
		Table: "instances",
		Columns: []Column{
			{Name: "id", Kind: KindString},
			{Name: "base_version_id", Kind: KindString},
			{Name: "city", Kind: KindString, Nullable: true},
			{Name: "created", Kind: KindTime},
			{Name: "epoch", Kind: KindInt, Nullable: true},
			{Name: "mape", Kind: KindFloat, Nullable: true},
			{Name: "deprecated", Kind: KindBool, Nullable: true},
		},
		Key:     "id",
		Indexes: []string{"base_version_id", "city", "mape", "created"},
	}
}

func row(id, base, city string, created time.Time, mape float64) Row {
	return Row{
		"id":              String(id),
		"base_version_id": String(base),
		"city":            String(city),
		"created":         Time(created),
		"mape":            Float(mape),
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s := NewMemory()
	if err := s.CreateTable(modelsSchema()); err != nil {
		t.Fatal(err)
	}
	return s
}

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

func TestInsertGet(t *testing.T) {
	s := newStore(t)
	r := row("i1", "demand_conversion", "sf", t0, 0.12)
	if err := s.InsertCtx(context.Background(), "instances", r); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(context.Background(), "instances", "i1")
	if err != nil {
		t.Fatal(err)
	}
	if got["city"].Str != "sf" || got["mape"].Float() != 0.12 {
		t.Fatalf("Get returned %#v", got)
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	s := newStore(t)
	r := row("i1", "b", "sf", t0, 0.1)
	if err := s.InsertCtx(context.Background(), "instances", r); err != nil {
		t.Fatal(err)
	}
	err := s.InsertCtx(context.Background(), "instances", r)
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second insert err = %v, want ErrDuplicate", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := newStore(t)
	if err := s.InsertCtx(context.Background(), "instances", row("i1", "b", "sf", t0, 0.1)); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(context.Background(), "instances", "i1")
	got["city"] = String("mutated")
	again, _ := s.Get(context.Background(), "instances", "i1")
	if again["city"].Str != "sf" {
		t.Fatal("mutating a returned row leaked into the store")
	}
}

func TestInsertCopiesCallerRow(t *testing.T) {
	s := newStore(t)
	r := row("i1", "b", "sf", t0, 0.1)
	if err := s.InsertCtx(context.Background(), "instances", r); err != nil {
		t.Fatal(err)
	}
	r["city"] = String("mutated-after-insert")
	got, _ := s.Get(context.Background(), "instances", "i1")
	if got["city"].Str != "sf" {
		t.Fatal("mutating the caller's row after Insert leaked into the store")
	}
}

func TestSchemaValidation(t *testing.T) {
	s := NewMemory()
	cases := []Schema{
		{},                           // empty name
		{Table: "t", Key: "missing"}, // key not declared
		{Table: "t", Columns: []Column{{Name: "k", Kind: KindInt}}, Key: "k"},                                // non-string key
		{Table: "t", Columns: []Column{{Name: "k", Kind: KindString, Nullable: true}}, Key: "k"},             // nullable key
		{Table: "t", Columns: []Column{{Name: "k", Kind: KindString}, {Name: "k", Kind: KindInt}}, Key: "k"}, // dup column
		{Table: "t", Columns: []Column{{Name: "k", Kind: KindString}}, Key: "k", Indexes: []string{"nope"}},  // bad index
	}
	for i, sc := range cases {
		if err := s.CreateTable(sc); err == nil {
			t.Errorf("case %d: CreateTable accepted invalid schema %+v", i, sc)
		}
	}
}

func TestRowValidation(t *testing.T) {
	s := newStore(t)
	cases := []Row{
		{"id": String("x"), "base_version_id": String("b"), "created": Time(t0), "bogus": Int(1)}, // undeclared column
		{"id": String("x"), "base_version_id": String("b")},                                       // missing non-nullable created
		{"id": String("x"), "base_version_id": Int(3), "created": Time(t0)},                       // wrong kind
		{"id": String(""), "base_version_id": String("b"), "created": Time(t0)},                   // empty pk
		{"id": String("x"), "base_version_id": Value{}, "created": Time(t0)},                      // null in non-nullable
	}
	for i, r := range cases {
		if err := s.InsertCtx(context.Background(), "instances", r); err == nil {
			t.Errorf("case %d: Insert accepted invalid row %#v", i, r)
		}
	}
}

// TestCreateTableIdempotent: an identical re-create is a no-op, one that
// differs only in its indexes is applied in place over the rows already
// stored, and one that differs in its columns is refused.
func TestCreateTableIdempotent(t *testing.T) {
	s := newStore(t)
	fill(t, s, 50)
	if err := s.CreateTable(modelsSchema()); err != nil {
		t.Fatalf("identical re-create failed: %v", err)
	}
	reindexed := modelsSchema()
	reindexed.Indexes = []string{"city,created", "mape"}
	if err := s.CreateTable(reindexed); err != nil {
		t.Fatalf("re-create with other indexes: %v", err)
	}
	dump(t, s) // the new index holds a posting for every row
	_, ex, err := s.SelectExplain(Query{Table: "instances",
		Where:   []Constraint{{Field: "city", Op: OpEq, Value: String("sf")}},
		OrderBy: "created", Desc: true, Limit: 3})
	if err != nil || ex.Index != "city,created" || !ex.Ordered || ex.Scanned != 3 {
		t.Fatalf("after the index change: %+v, %v", ex, err)
	}
	for name, edit := range map[string]func(*Schema){
		"a column dropped":   func(sc *Schema) { sc.Columns = sc.Columns[:len(sc.Columns)-1] },
		"a column retyped":   func(sc *Schema) { sc.Columns[4].Kind = KindFloat },
		"a column nullable":  func(sc *Schema) { sc.Columns[1].Nullable = true },
		"another key column": func(sc *Schema) { sc.Key = "base_version_id" },
	} {
		changed := modelsSchema()
		edit(&changed)
		changed.Indexes = nil
		if err := s.CreateTable(changed); err == nil {
			t.Errorf("re-create with %s succeeded", name)
		}
	}
	if got := s.tables["instances"].schema; !schemaEqual(got, reindexed) {
		t.Fatalf("schema after the refusals: %+v", got)
	}
}

func TestUpdate(t *testing.T) {
	s := newStore(t)
	if err := s.InsertCtx(context.Background(), "instances", row("i1", "b", "sf", t0, 0.1)); err != nil {
		t.Fatal(err)
	}
	upd := row("i1", "b", "sf", t0, 0.1)
	upd["deprecated"] = Bool(true)
	if err := s.Update(context.Background(), "instances", upd); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(context.Background(), "instances", "i1")
	if !got["deprecated"].Bool() {
		t.Fatal("update did not stick")
	}
	if err := s.Update(context.Background(), "instances", row("absent", "b", "sf", t0, 0.1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of absent row = %v, want ErrNotFound", err)
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	s := newStore(t)
	if err := s.InsertCtx(context.Background(), "instances", row("i1", "b", "sf", t0, 0.5)); err != nil {
		t.Fatal(err)
	}
	upd := row("i1", "b", "nyc", t0, 0.5)
	if err := s.Update(context.Background(), "instances", upd); err != nil {
		t.Fatal(err)
	}
	rows, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpEq, Value: String("sf")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Index != "city" {
		t.Fatalf("expected index scan on city, got %q", ex.Index)
	}
	if len(rows) != 0 {
		t.Fatalf("stale index entry returned %d rows for sf", len(rows))
	}
	rows, _ = s.Select(context.Background(), Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpEq, Value: String("nyc")}},
	})
	if len(rows) != 1 {
		t.Fatalf("new index entry missing: got %d rows for nyc", len(rows))
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t)
	if err := s.InsertCtx(context.Background(), "instances", row("i1", "b", "sf", t0, 0.1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "instances", "i1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), "instances", "i1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if err := s.Delete(context.Background(), "instances", "i1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v", err)
	}
	// Index must not resurrect the row.
	rows, _ := s.Select(context.Background(), Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpEq, Value: String("sf")}},
	})
	if len(rows) != 0 {
		t.Fatal("index returned a deleted row")
	}
}

func TestNoTableErrors(t *testing.T) {
	s := NewMemory()
	if err := s.InsertCtx(context.Background(), "nope", Row{}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Insert = %v", err)
	}
	if _, err := s.Get(context.Background(), "nope", "x"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Get = %v", err)
	}
	if _, err := s.Select(context.Background(), Query{Table: "nope"}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Select = %v", err)
	}
}

func TestBatchAtomicity(t *testing.T) {
	s := newStore(t)
	if err := s.InsertCtx(context.Background(), "instances", row("seed", "b", "sf", t0, 0.1)); err != nil {
		t.Fatal(err)
	}
	// Second mutation is invalid (duplicate of seed): nothing must apply.
	err := s.Batch(context.Background(), []Mutation{
		{Kind: MutInsert, Table: "instances", Row: row("new1", "b", "sf", t0, 0.2)},
		{Kind: MutInsert, Table: "instances", Row: row("seed", "b", "sf", t0, 0.3)},
	})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("batch err = %v", err)
	}
	if _, err := s.Get(context.Background(), "instances", "new1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("failed batch partially applied")
	}
	// Valid batch with intra-batch dependency: delete then reinsert same pk.
	err = s.Batch(context.Background(), []Mutation{
		{Kind: MutDelete, Table: "instances", PK: "seed"},
		{Kind: MutInsert, Table: "instances", Row: row("seed", "b2", "nyc", t0, 0.4)},
	})
	if err != nil {
		t.Fatalf("valid batch failed: %v", err)
	}
	got, _ := s.Get(context.Background(), "instances", "seed")
	if got["base_version_id"].Str != "b2" {
		t.Fatalf("batch result row = %#v", got)
	}
	n, _ := s.Len("instances")
	if n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestBatchSeesOwnInserts(t *testing.T) {
	s := newStore(t)
	err := s.Batch(context.Background(), []Mutation{
		{Kind: MutInsert, Table: "instances", Row: row("a", "b", "sf", t0, 0.1)},
		{Kind: MutUpdate, Table: "instances", Row: row("a", "b", "la", t0, 0.2)},
	})
	if err != nil {
		t.Fatalf("batch insert-then-update failed: %v", err)
	}
	got, _ := s.Get(context.Background(), "instances", "a")
	if got["city"].Str != "la" {
		t.Fatalf("city = %q, want la", got["city"].Str)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(modelsSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.InsertCtx(context.Background(), "instances", row(fmt.Sprintf("i%d", i), "b", "sf", t0.Add(time.Duration(i)*time.Hour), float64(i)/100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Update(context.Background(), "instances", row("i3", "b", "updated-city", t0, 0.99)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "instances", "i7"); err != nil {
		t.Fatal(err)
	}
	if err := s.Batch(context.Background(), []Mutation{
		{Kind: MutInsert, Table: "instances", Row: row("batch1", "b", "sf", t0, 0.5)},
		{Kind: MutDelete, Table: "instances", PK: "i9"},
	}); err != nil {
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
	n, err := s2.Len("instances")
	if err != nil {
		t.Fatal(err)
	}
	if n != 19 { // 20 - i7 - i9 + batch1
		t.Fatalf("recovered %d rows, want 19", n)
	}
	got, err := s2.Get(context.Background(), "instances", "i3")
	if err != nil {
		t.Fatal(err)
	}
	if got["city"].Str != "updated-city" {
		t.Fatal("update lost across reopen")
	}
	if _, err := s2.Get(context.Background(), "instances", "i7"); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete lost across reopen")
	}
	// Recovered indexes must serve queries.
	rows, ex, err := s2.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpEq, Value: String("updated-city")}},
	})
	if err != nil || len(rows) != 1 {
		t.Fatalf("index query after recovery: rows=%d err=%v", len(rows), err)
	}
	if ex.Index != "city" {
		t.Fatalf("recovered query did not use index: %+v", ex)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := newStore(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-i%d", w, i)
				if err := s.InsertCtx(context.Background(), "instances", row(id, "b", "sf", t0, 0.1)); err != nil {
					t.Errorf("insert %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := s.Select(context.Background(), Query{
					Table: "instances",
					Where: []Constraint{{Field: "city", Op: OpEq, Value: String("sf")}},
					Limit: 10,
				}); err != nil {
					t.Errorf("select: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	n, _ := s.Len("instances")
	if n != 8*200 {
		t.Fatalf("Len = %d, want %d", n, 8*200)
	}
}
