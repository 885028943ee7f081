package relstore

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// fill inserts n rows spread over cities and mape values.
func fill(t *testing.T, s *Store, n int) {
	t.Helper()
	cities := []string{"sf", "nyc", "la", "chicago", "london"}
	for i := 0; i < n; i++ {
		r := row(fmt.Sprintf("i%04d", i), fmt.Sprintf("base%d", i%3), cities[i%len(cities)],
			t0.Add(time.Duration(i)*time.Minute), float64(i%100)/100)
		r["epoch"] = Int(int64(i))
		if err := s.InsertCtx(context.Background(), "instances", r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelectEqUsesIndex(t *testing.T) {
	s := newStore(t)
	fill(t, s, 500)
	rows, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpEq, Value: String("sf")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Index != "city" {
		t.Fatalf("Explain.Index = %q, want city", ex.Index)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows, want 100", len(rows))
	}
	if ex.Scanned != 100 {
		t.Fatalf("index scan examined %d rows, want exactly 100", ex.Scanned)
	}
	for _, r := range rows {
		if r["city"].Str != "sf" {
			t.Fatalf("wrong city in result: %#v", r["city"])
		}
	}
}

func TestSelectForceScan(t *testing.T) {
	s := newStore(t)
	fill(t, s, 500)
	rows, ex, err := s.SelectExplain(Query{
		Table:     "instances",
		Where:     []Constraint{{Field: "city", Op: OpEq, Value: String("sf")}},
		ForceScan: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Index != "" {
		t.Fatalf("ForceScan still used index %q", ex.Index)
	}
	if ex.Scanned != 500 {
		t.Fatalf("full scan examined %d rows, want 500", ex.Scanned)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows, want 100", len(rows))
	}
}

func TestSelectUnindexedField(t *testing.T) {
	s := newStore(t)
	fill(t, s, 100)
	_, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "epoch", Op: OpEq, Value: Int(5)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Index != "" {
		t.Fatalf("query on unindexed column used index %q", ex.Index)
	}
}

func TestSelectRangeOps(t *testing.T) {
	s := newStore(t)
	fill(t, s, 200)
	for _, tc := range []struct {
		op   Op
		val  float64
		want func(m float64) bool
	}{
		{OpLt, 0.10, func(m float64) bool { return m < 0.10 }},
		{OpLe, 0.10, func(m float64) bool { return m <= 0.10 }},
		{OpGt, 0.90, func(m float64) bool { return m > 0.90 }},
		{OpGe, 0.90, func(m float64) bool { return m >= 0.90 }},
	} {
		rows, ex, err := s.SelectExplain(Query{
			Table: "instances",
			Where: []Constraint{{Field: "mape", Op: tc.op, Value: Float(tc.val)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Index != "mape" {
			t.Fatalf("%v: index = %q", tc.op, ex.Index)
		}
		if len(rows) == 0 {
			t.Fatalf("%v: empty result", tc.op)
		}
		for _, r := range rows {
			if !tc.want(r["mape"].Float()) {
				t.Fatalf("%v %v returned mape=%v", tc.op, tc.val, r["mape"].Float())
			}
		}
	}
}

func TestSelectPrefixAndContains(t *testing.T) {
	s := newStore(t)
	fill(t, s, 100)
	rows, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpPrefix, Value: String("l")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Index != "city" {
		t.Fatalf("prefix query index = %q", ex.Index)
	}
	for _, r := range rows {
		c := r["city"].Str
		if c != "la" && c != "london" {
			t.Fatalf("prefix l returned %q", c)
		}
	}
	if len(rows) != 40 {
		t.Fatalf("prefix l matched %d rows, want 40", len(rows))
	}

	rows, err = s.Select(context.Background(), Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpContains, Value: String("ondo")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("contains ondo matched %d rows, want 20 (london)", len(rows))
	}
}

func TestSelectIn(t *testing.T) {
	s := newStore(t)
	fill(t, s, 100)
	rows, err := s.Select(context.Background(), Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpIn, Values: []Value{String("sf"), String("la")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 {
		t.Fatalf("in(sf,la) matched %d rows, want 40", len(rows))
	}
}

func TestSelectNe(t *testing.T) {
	s := newStore(t)
	fill(t, s, 100)
	rows, err := s.Select(context.Background(), Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpNe, Value: String("sf")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 80 {
		t.Fatalf("ne sf matched %d rows, want 80", len(rows))
	}
}

func TestSelectConjunction(t *testing.T) {
	s := newStore(t)
	fill(t, s, 500)
	rows, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{
			{Field: "city", Op: OpEq, Value: String("sf")},
			{Field: "mape", Op: OpLt, Value: Float(0.25)},
			{Field: "base_version_id", Op: OpEq, Value: String("base0")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Equality constraints rank best; either city or base_version_id may drive.
	if ex.Index != "city" && ex.Index != "base_version_id" {
		t.Fatalf("conjunction index = %q", ex.Index)
	}
	for _, r := range rows {
		if r["city"].Str != "sf" || r["mape"].Float() >= 0.25 || r["base_version_id"].Str != "base0" {
			t.Fatalf("conjunction returned non-matching row %v", r)
		}
	}
}

func TestSelectOrderByLimitOffset(t *testing.T) {
	s := newStore(t)
	fill(t, s, 50)
	rows, err := s.Select(context.Background(), Query{
		Table:   "instances",
		OrderBy: "created",
		Desc:    true,
		Limit:   5,
		Offset:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Newest is i0049; offset 2 skips i0049, i0048.
	if rows[0]["id"].Str != "i0047" {
		t.Fatalf("rows[0] = %s, want i0047", rows[0]["id"].Str)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i]["created"].Time().After(rows[i-1]["created"].Time()) {
			t.Fatal("descending order violated")
		}
	}
}

func TestSelectOffsetPastEnd(t *testing.T) {
	s := newStore(t)
	fill(t, s, 10)
	rows, err := s.Select(context.Background(), Query{Table: "instances", Offset: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("offset past end returned %d rows", len(rows))
	}
}

func TestSelectLimitEarlyTermination(t *testing.T) {
	s := newStore(t)
	fill(t, s, 1000)
	_, ex, err := s.SelectExplain(Query{
		Table: "instances",
		Where: []Constraint{{Field: "city", Op: OpEq, Value: String("sf")}},
		Limit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Scanned > 10 {
		t.Fatalf("limit 3 with index scanned %d rows; early termination broken", ex.Scanned)
	}
}

func TestSelectNoOrderIsPKOrder(t *testing.T) {
	s := newStore(t)
	fill(t, s, 20)
	rows, err := s.Select(context.Background(), Query{Table: "instances"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1]["id"].Str >= rows[i]["id"].Str {
			t.Fatal("full scan not in primary-key order")
		}
	}
}

func TestValueCompareNumericCoercion(t *testing.T) {
	if Compare(Int(3), Float(3.0)) != 0 {
		t.Fatal("Int(3) != Float(3.0)")
	}
	if Compare(Int(2), Float(2.5)) >= 0 {
		t.Fatal("Int(2) >= Float(2.5)")
	}
	if Compare(Float(10), Int(9)) <= 0 {
		t.Fatal("Float(10) <= Int(9)")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	// Property: Compare is antisymmetric and transitive over a sample domain.
	vals := []Value{
		{}, String(""), String("a"), String("b"), Int(-1), Int(0), Int(5),
		Float(-0.5), Float(0), Float(5), Bool(false), Bool(true),
		Time(t0), Time(t0.Add(time.Hour)),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := Compare(a, b), -Compare(b, a); got != -want && !(got == 0 && want == 0) {
				// antisymmetry: Compare(a,b) and Compare(b,a) must have opposite signs
				if (got > 0) == (Compare(b, a) > 0) && got != 0 {
					t.Fatalf("antisymmetry violated: %#v vs %#v", a, b)
				}
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("transitivity violated: %#v <= %#v <= %#v but a > c", a, b, c)
				}
			}
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpPrefix, OpContains, OpIn} {
		back, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%s): %v", op, err)
		}
		if back != op {
			t.Fatalf("round trip %v -> %v", op, back)
		}
	}
	if _, err := ParseOp("bogus"); err == nil {
		t.Fatal("ParseOp accepted bogus operator")
	}
}

// Property: for random datasets and random range constraints, an index scan
// and a forced full scan return exactly the same result set.
func TestQuickIndexScanEquivalence(t *testing.T) {
	type spec struct {
		N      uint8
		OpSel  uint8
		Thresh uint8
	}
	f := func(sp spec) bool {
		s := NewMemory()
		if err := s.CreateTable(modelsSchema()); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(int64(sp.N)*7919 + int64(sp.Thresh)))
		n := int(sp.N)%200 + 1
		for i := 0; i < n; i++ {
			r := row(fmt.Sprintf("r%03d", i), "b", fmt.Sprintf("c%d", rng.Intn(5)),
				t0.Add(time.Duration(i)*time.Second), float64(rng.Intn(1000))/1000)
			if err := s.InsertCtx(context.Background(), "instances", r); err != nil {
				return false
			}
		}
		ops := []Op{OpEq, OpLt, OpLe, OpGt, OpGe}
		c := Constraint{Field: "mape", Op: ops[int(sp.OpSel)%len(ops)], Value: Float(float64(sp.Thresh) / 255)}
		q := Query{Table: "instances", Where: []Constraint{c}, OrderBy: "id"}
		idxRows, idxEx, err := s.SelectExplain(q)
		if err != nil {
			return false
		}
		q.ForceScan = true
		scanRows, _, err := s.SelectExplain(q)
		if err != nil {
			return false
		}
		if idxEx.Index != "mape" {
			return false
		}
		if len(idxRows) != len(scanRows) {
			return false
		}
		for i := range idxRows {
			if idxRows[i]["id"].Str != scanRows[i]["id"].Str {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
