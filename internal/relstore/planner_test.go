package relstore

import (
	"context"
	"testing"
	"time"
)

// The tests in this file pin the planner's streamed-scan behaviour: when
// an index-driven scan shares its column with ORDER BY the result must
// stream from the index (Explain.Ordered) with Limit stopping the scan
// early, and range scans must seek past equal-value runs instead of
// filtering through them.

func TestDriverScanSharesOrderByColumn(t *testing.T) {
	s := newStore(t)
	fill(t, s, 500)
	cutoff := t0.Add(100 * time.Minute)
	q := Query{
		Table:   "instances",
		Where:   []Constraint{{Field: "created", Op: OpGe, Value: Time(cutoff)}},
		OrderBy: "created", Limit: 10,
	}
	rows, ex, err := s.SelectExplain(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Index != "created" || !ex.Ordered {
		t.Fatalf("Explain = %+v, want created index streamed in order", ex)
	}
	if ex.Scanned > 10 {
		t.Fatalf("streamed limit-10 scan examined %d postings", ex.Scanned)
	}
	if len(rows) != 10 || !rows[0]["created"].Time().Equal(cutoff) {
		t.Fatalf("rows = %d, first created = %v", len(rows), rows[0]["created"].Time())
	}
	for i := 1; i < len(rows); i++ {
		if rows[i]["created"].Time().Before(rows[i-1]["created"].Time()) {
			t.Fatal("streamed rows out of ascending order")
		}
	}
}

func TestDriverScanDescStreams(t *testing.T) {
	s := newStore(t)
	fill(t, s, 500)
	cutoff := t0.Add(100 * time.Minute)
	q := Query{
		Table:   "instances",
		Where:   []Constraint{{Field: "created", Op: OpGt, Value: Time(cutoff)}},
		OrderBy: "created", Desc: true, Limit: 10,
	}
	rows, ex, err := s.SelectExplain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Ordered || ex.Scanned > 10 {
		t.Fatalf("desc streamed scan: %+v", ex)
	}
	// Same rows as the forced full scan + sort.
	fq := q
	fq.ForceScan = true
	frows, fex, err := s.SelectExplain(fq)
	if err != nil {
		t.Fatal(err)
	}
	if fex.Ordered {
		t.Fatal("ForceScan claimed a streamed order")
	}
	if len(rows) != len(frows) {
		t.Fatalf("streamed %d rows, sorted %d", len(rows), len(frows))
	}
	for i := range rows {
		if rows[i]["id"].Str != frows[i]["id"].Str {
			t.Fatalf("row %d: streamed %s vs sorted %s", i, rows[i]["id"].Str, frows[i]["id"].Str)
		}
	}
	if !rows[0]["created"].Time().Equal(t0.Add(499 * time.Minute)) {
		t.Fatalf("desc scan started at %v", rows[0]["created"].Time())
	}
}

func TestDriverScanDifferentOrderBySorts(t *testing.T) {
	s := newStore(t)
	fill(t, s, 200)
	_, ex, err := s.SelectExplain(Query{
		Table:   "instances",
		Where:   []Constraint{{Field: "city", Op: OpEq, Value: String("sf")}},
		OrderBy: "created", Desc: true, Limit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Index != "city" {
		t.Fatalf("Index = %q", ex.Index)
	}
	if ex.Ordered {
		t.Fatal("sort on a different column reported as streamed")
	}
}

func TestPlannerPrefersOrderByColumnOnRankTie(t *testing.T) {
	s := newStore(t)
	fill(t, s, 300)
	// Two rank-2 range constraints; the one sharing the ORDER BY column
	// must drive so the scan streams.
	_, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{
			{Field: "mape", Op: OpGe, Value: Float(0)},
			{Field: "created", Op: OpGe, Value: Time(t0)},
		},
		OrderBy: "created", Limit: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Index != "created" || !ex.Ordered {
		t.Fatalf("tie-break picked %q (ordered=%v), want created streamed", ex.Index, ex.Ordered)
	}
}

func TestOffsetBeyondMatchesOnStreamedPaths(t *testing.T) {
	s := newStore(t)
	fill(t, s, 50)
	for _, q := range []Query{
		// Index-driven streamed scan.
		{Table: "instances",
			Where:   []Constraint{{Field: "created", Op: OpGe, Value: Time(t0)}},
			OrderBy: "created", Offset: 100, Limit: 10},
		// Ordered-index path.
		{Table: "instances", OrderBy: "created", Offset: 100, Limit: 10},
		// Offset exactly at the match count.
		{Table: "instances", OrderBy: "created", Offset: 50},
	} {
		rows, _, err := s.SelectExplain(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("offset past end returned %d rows for %+v", len(rows), q)
		}
	}
}

func TestOffsetPlusLimitEarlyTermination(t *testing.T) {
	s := newStore(t)
	fill(t, s, 1000)
	// Ordered-index path: scan must stop at offset+limit postings.
	_, ex, err := s.SelectExplain(Query{
		Table: "instances", OrderBy: "created", Offset: 20, Limit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Ordered || ex.Scanned > 25 {
		t.Fatalf("ordered offset+limit scanned %d, want <=25", ex.Scanned)
	}
	// Index-driven streamed path, descending.
	rows, ex, err := s.SelectExplain(Query{
		Table:   "instances",
		Where:   []Constraint{{Field: "created", Op: OpGe, Value: Time(t0)}},
		OrderBy: "created", Desc: true, Offset: 20, Limit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Ordered || ex.Scanned > 25 {
		t.Fatalf("streamed desc offset+limit scanned %d, want <=25", ex.Scanned)
	}
	if len(rows) != 5 || !rows[0]["created"].Time().Equal(t0.Add(979*time.Minute)) {
		t.Fatalf("page = %d rows starting %v", len(rows), rows[0]["created"].Time())
	}
}

func TestGtSeeksPastEqualRun(t *testing.T) {
	s := newStore(t)
	// 400 rows share mape 0.5; 20 rows sit above it.
	for i := 0; i < 400; i++ {
		r := row(pad("dup", i), "b", "sf", t0.Add(time.Duration(i)*time.Second), 0.5)
		if err := s.InsertCtx(context.Background(), "instances", r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		r := row(pad("hi", i), "b", "sf", t0.Add(time.Duration(1000+i)*time.Second), 0.9)
		if err := s.InsertCtx(context.Background(), "instances", r); err != nil {
			t.Fatal(err)
		}
	}
	rows, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "mape", Op: OpGt, Value: Float(0.5)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("OpGt matched %d rows, want 20", len(rows))
	}
	if ex.Scanned != 20 {
		t.Fatalf("OpGt scanned %d postings; seek past the 400-row equal run broken", ex.Scanned)
	}
	// The boundary itself stays in for OpGe.
	rows, ex, err = s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "mape", Op: OpGe, Value: Float(0.5)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 420 || ex.Scanned != 420 {
		t.Fatalf("OpGe rows=%d scanned=%d, want 420/420", len(rows), ex.Scanned)
	}
}

func TestIndexBoundaryRows(t *testing.T) {
	s := newStore(t)
	// Cities chosen to bracket the "sf" prefix on both sides.
	for i, city := range []string{"se", "sea", "sf", "sf", "sfo", "sg", "sz"} {
		r := row(pad("r", i), "b", city, t0.Add(time.Duration(i)*time.Minute), 0.1)
		if err := s.InsertCtx(context.Background(), "instances", r); err != nil {
			t.Fatal(err)
		}
	}
	rows, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpPrefix, Value: String("sf")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("prefix sf matched %d rows, want 3 (sf, sf, sfo)", len(rows))
	}
	// The scan seeks to the run start and stops one posting past it.
	if ex.Index != "city" || ex.Scanned > 4 {
		t.Fatalf("prefix scan: %+v", ex)
	}
	// Exclusive boundaries on each comparison op.
	for _, tc := range []struct {
		op   Op
		want int
	}{
		{OpLt, 2}, // se, sea
		{OpLe, 4}, // + the two sf rows
		{OpGt, 3}, // sfo, sg, sz
		{OpGe, 5}, // + the two sf rows
		{OpEq, 2}, // the two sf rows
		{OpNe, 5}, // everything else, nulls excluded
	} {
		rows, _, err := s.SelectExplain(Query{
			Table: "instances",
			Where: []Constraint{{Field: "city", Op: tc.op, Value: String("sf")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != tc.want {
			t.Fatalf("%s sf matched %d rows, want %d", tc.op, len(rows), tc.want)
		}
	}
}

func TestNeExcludesNullRows(t *testing.T) {
	s := newStore(t)
	withCity := row("i1", "b", "sf", t0, 0.1)
	if err := s.InsertCtx(context.Background(), "instances", withCity); err != nil {
		t.Fatal(err)
	}
	noCity := Row{
		"id":              String("i2"),
		"base_version_id": String("b"),
		"created":         Time(t0),
	}
	if err := s.InsertCtx(context.Background(), "instances", noCity); err != nil {
		t.Fatal(err)
	}
	rows, err := s.Select(context.Background(), Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpNe, Value: String("nyc")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// SQL semantics: NULL <> 'nyc' is unknown, so only i1 matches.
	if len(rows) != 1 || rows[0]["id"].Str != "i1" {
		t.Fatalf("OpNe matched %d rows (%v), want just i1", len(rows), rows)
	}
}

// TestPrefixSuccessor pins successor, the upper bound of every key range
// the planner seeks: the smallest key above all keys with a byte prefix.
func TestPrefixSuccessor(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
		ok   bool
	}{
		{"sf", "sg", true},
		{"a\xff", "b", true},
		{"s\x00\xff", "s\x01", true}, // an escaped 0x00 ends in 0xff too
		{"\xff\xff", "", false},
		{"", "", false},
	} {
		got, ok := successor([]byte(tc.in))
		if got != tc.want || ok != tc.ok {
			t.Fatalf("successor(%q) = %q,%v want %q,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPrefixDescStreams(t *testing.T) {
	s := newStore(t)
	for i, city := range []string{"se", "sf", "sf", "sfo", "sg"} {
		r := row(pad("r", i), "b", city, t0.Add(time.Duration(i)*time.Minute), 0.1)
		if err := s.InsertCtx(context.Background(), "instances", r); err != nil {
			t.Fatal(err)
		}
	}
	rows, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpPrefix, Value: String("sf")}},
		// ORDER BY the prefix column itself: index order applies.
		OrderBy: "city", Desc: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Ordered {
		t.Fatalf("prefix desc not streamed: %+v", ex)
	}
	if len(rows) != 3 || rows[0]["city"].Str != "sfo" {
		t.Fatalf("prefix desc rows: %v", rows)
	}
}

func pad(prefix string, i int) string {
	return prefix + string([]byte{byte('a' + i/26%26), byte('a' + i%26)})
}
