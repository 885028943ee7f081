package relstore

import (
	"context"
	"testing"
	"time"
)

func TestOrderedIndexStreamDesc(t *testing.T) {
	s := newStore(t)
	fill(t, s, 1000)
	rows, ex, err := s.SelectExplain(Query{
		Table:   "instances",
		OrderBy: "created",
		Desc:    true,
		Limit:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Ordered || ex.Index != "created" {
		t.Fatalf("explain = %+v, want ordered index scan on created", ex)
	}
	if ex.Scanned > 20 {
		t.Fatalf("ordered limit-10 scan examined %d rows", ex.Scanned)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	// Newest first: the last inserted row i0999 leads.
	if rows[0]["id"].Str != "i0999" {
		t.Fatalf("rows[0] = %s", rows[0]["id"].Str)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i]["created"].Time().After(rows[i-1]["created"].Time()) {
			t.Fatal("descending order violated")
		}
	}
}

func TestOrderedIndexStreamAscWithFilter(t *testing.T) {
	s := newStore(t)
	fill(t, s, 500)
	// Residual filter on an unindexable op so no driver constraint exists,
	// but OrderBy created still streams.
	rows, ex, err := s.SelectExplain(Query{
		Table:   "instances",
		Where:   []Constraint{{Field: "city", Op: OpNe, Value: String("sf")}},
		OrderBy: "created",
		Limit:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Ordered {
		t.Fatalf("explain = %+v", ex)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r["city"].Str == "sf" {
			t.Fatal("filter not applied on ordered path")
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i]["created"].Time().Before(rows[i-1]["created"].Time()) {
			t.Fatal("ascending order violated")
		}
	}
}

func TestOrderedPathMatchesSortPath(t *testing.T) {
	s := newStore(t)
	fill(t, s, 300)
	ordered, ex, err := s.SelectExplain(Query{
		Table: "instances", OrderBy: "created", Desc: true, Limit: 50, Offset: 7,
	})
	if err != nil || !ex.Ordered {
		t.Fatalf("ordered path: %v %+v", err, ex)
	}
	sorted, ex2, err := s.SelectExplain(Query{
		Table: "instances", OrderBy: "created", Desc: true, Limit: 50, Offset: 7, ForceScan: true,
	})
	if err != nil || ex2.Ordered {
		t.Fatalf("scan path: %v %+v", err, ex2)
	}
	if len(ordered) != len(sorted) {
		t.Fatalf("lengths differ: %d vs %d", len(ordered), len(sorted))
	}
	for i := range ordered {
		if ordered[i]["id"].Str != sorted[i]["id"].Str {
			t.Fatalf("row %d differs: %s vs %s", i, ordered[i]["id"].Str, sorted[i]["id"].Str)
		}
	}
}

func TestOrderedPathSkippedForNullableColumn(t *testing.T) {
	// city is nullable: rows with null city would vanish from an index
	// stream, so the planner must not use it for ordering.
	s := newStore(t)
	fill(t, s, 50)
	nullCity := Row{
		"id":              String("nullcity"),
		"base_version_id": String("b"),
		"created":         Time(t0.Add(time.Hour * 10000)),
	}
	if err := s.InsertCtx(context.Background(), "instances", nullCity); err != nil {
		t.Fatal(err)
	}
	rows, ex, err := s.SelectExplain(Query{Table: "instances", OrderBy: "city"})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Ordered {
		t.Fatalf("ordered stream used nullable column: %+v", ex)
	}
	if len(rows) != 51 {
		t.Fatalf("%d rows, want 51 (null-city row must not vanish)", len(rows))
	}
}
