package relstore

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests in this file check SelectFunc, the store's one read path,
// against a naive oracle: a map of the rows the store should hold, filtered
// and sorted the obvious way. Select must equal SelectFunc must equal the
// oracle, every planned query must equal its ForceScan twin, and a visitor
// that stops after k rows must have seen a prefix of Select's answer.

func TestCompareOrdersNaNAboveEveryNumber(t *testing.T) {
	nan := Float(math.NaN())
	for _, v := range []Value{Float(math.Inf(1)), Float(math.MaxFloat64), Float(0), Float(math.Inf(-1)), Int(math.MaxInt64), Int(math.MinInt64)} {
		if Compare(nan, v) <= 0 || Compare(v, nan) >= 0 {
			t.Fatalf("NaN does not sort above %#v", v)
		}
	}
	if Compare(nan, Float(math.Float64frombits(0xfff8000000000123))) != 0 {
		t.Fatal("two NaNs with different payloads compare unequal")
	}
	// Kinds still order the same way around numbers: strings below, bools
	// above.
	if Compare(String("~"), nan) >= 0 || Compare(nan, Bool(false)) >= 0 {
		t.Fatal("NaN left the numeric kinds' place in the order")
	}
}

// TestNaNIndexKeepsLivePostings: an indexed float column holding NaN keeps
// exactly its live postings through updates and deletes (dump counts them),
// and every planned query over it answers as its ForceScan twin does.
func TestNaNIndexKeepsLivePostings(t *testing.T) {
	s := newStore(t)
	nan := math.NaN()
	vals := []float64{nan, 0.05, nan, 0.5, math.Inf(1), math.Inf(-1), nan, 0.05, 0}
	for i, v := range vals {
		if err := s.Insert("instances", row(pad("r", i), "b", "sf", t0.Add(time.Duration(i)*time.Minute), v)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		dump(t, s) // fails on a posting count that disagrees with the rows
		for _, c := range []Constraint{
			{Field: "mape", Op: OpEq, Value: Float(nan)},
			{Field: "mape", Op: OpEq, Value: Float(0.05)},
			{Field: "mape", Op: OpGt, Value: Float(0.05)},
			{Field: "mape", Op: OpGe, Value: Float(0.05)},
			{Field: "mape", Op: OpLt, Value: Float(0.05)},
			{Field: "mape", Op: OpLe, Value: Float(nan)},
			{Field: "mape", Op: OpGt, Value: Float(math.Inf(1))},
		} {
			for _, desc := range []bool{false, true} {
				q := Query{Table: "instances", Where: []Constraint{c}, OrderBy: "mape", Desc: desc}
				planned, ex, err := s.SelectExplain(q)
				if err != nil {
					t.Fatal(err)
				}
				q.ForceScan = true
				forced, _, err := s.SelectExplain(q)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Index != "mape" || !sameOrderKeys(planned, forced, "mape") || !sameIDSet(planned, forced) {
					t.Fatalf("%s: %s %#v (desc=%v): planned %v, full scan %v", when, c.Op, c.Value, desc, ids(planned), ids(forced))
				}
			}
		}
	}
	check("after inserts")
	// NaN → number, number → NaN, NaN → NaN, then deletes of both.
	for i, v := range map[int]float64{0: 0.9, 1: nan, 2: nan, 5: nan} {
		if err := s.Update("instances", row(pad("r", i), "b", "sf", t0.Add(time.Duration(i)*time.Minute), v)); err != nil {
			t.Fatal(err)
		}
	}
	check("after updates")
	for _, i := range []int{1, 3, 6} {
		if err := s.Delete("instances", pad("r", i)); err != nil {
			t.Fatal(err)
		}
	}
	check("after deletes")
	rows, err := s.Select(Query{Table: "instances", Where: []Constraint{{Field: "mape", Op: OpEq, Value: Float(nan)}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(rows); !slices.Equal(got, []string{"rac", "raf"}) {
		t.Fatalf("mape = NaN after the churn: %v, want [rac raf]", got)
	}
}

// mbSchema is the model-based tests' table: indexed columns of every
// comparable kind (nullable and not), unindexed ones beside them, and
// composite indexes whose later column is non-nullable (city,created),
// nullable (k,x) or a string (n,city).
func mbSchema() Schema {
	return Schema{
		Table: "mb",
		Columns: []Column{
			{Name: "id", Kind: KindString},
			{Name: "city", Kind: KindString, Nullable: true},
			{Name: "n", Kind: KindInt, Nullable: true},
			{Name: "x", Kind: KindFloat, Nullable: true},
			{Name: "created", Kind: KindTime},
			{Name: "tag", Kind: KindString, Nullable: true},
			{Name: "k", Kind: KindInt},
		},
		Key:     "id",
		Indexes: []string{"city", "n", "x", "created", "city,created", "k,x", "n,city"},
	}
}

var (
	mbCities = []string{"sf", "sfo", "sea", "nyc", "la", ""}
	mbFloats = []float64{0, 0.05, 0.5, 1, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	mbOrders = []string{"", "", "id", "city", "n", "x", "created", "tag", "k"}
)

// randomMBRow draws a row for key id: nullable cells are sometimes null or
// absent, and values repeat often enough to make ties.
func randomMBRow(r *rand.Rand, id string) Row {
	row := Row{
		"id":      String(id),
		"created": Time(t0.Add(time.Duration(r.Intn(20)) * time.Minute)),
		"k":       Int(int64(r.Intn(7))),
	}
	cell := func(name string, v Value) {
		switch r.Intn(5) {
		case 0: // absent
		case 1:
			row[name] = Value{}
		default:
			row[name] = v
		}
	}
	cell("city", String(pick(r, mbCities)))
	cell("n", Int(int64(r.Intn(9)-4)))
	cell("x", Float(pick(r, mbFloats)))
	cell("tag", String(pick(r, []string{"a", "b", "ab"})))
	return row
}

// randomConstraint draws a predicate over any column, with operators and
// values the planner may or may not be able to drive an index with.
func randomConstraint(r *rand.Rand) Constraint {
	switch r.Intn(6) {
	case 0:
		ops := []Op{OpEq, OpNe, OpLt, OpGe, OpPrefix, OpContains}
		c := Constraint{Field: "city", Op: pick(r, ops), Value: String(pick(r, []string{"sf", "s", "a", "nyc", ""}))}
		if r.Intn(5) == 0 {
			c.Op, c.Values = OpIn, []Value{String("sf"), String("la")}
		}
		return c
	case 1:
		c := Constraint{Field: "n", Op: pick(r, []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}), Value: Int(int64(r.Intn(9) - 4))}
		if r.Intn(5) == 0 {
			c.Op, c.Values = OpIn, []Value{Int(0), Float(2)}
		}
		return c
	case 2:
		return Constraint{Field: "x", Op: pick(r, []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}), Value: Float(pick(r, mbFloats))}
	case 3:
		return Constraint{Field: "created", Op: pick(r, []Op{OpEq, OpLt, OpLe, OpGt, OpGe}), Value: Time(t0.Add(time.Duration(r.Intn(20)) * time.Minute))}
	case 4:
		return Constraint{Field: "tag", Op: pick(r, []Op{OpEq, OpPrefix, OpNe}), Value: String(pick(r, []string{"a", "b"}))}
	default:
		return Constraint{Field: "k", Op: pick(r, []Op{OpLt, OpGe, OpEq}), Value: Int(int64(r.Intn(7)))}
	}
}

var rangeOps = []Op{OpLt, OpLe, OpGt, OpGe}

// randomCompositeWhere draws the shape composite indexes serve: an
// equality on an index's first column and comparisons or a prefix on its
// second, whose name it returns too. Constants come in the column's kind,
// in a kind that coerces to it exactly, and in one that does not, which
// the index must leave to the scan.
func randomCompositeWhere(r *rand.Rand) ([]Constraint, string) {
	var first, second Constraint
	switch r.Intn(3) {
	case 0: // city,created
		first = Constraint{Field: "city", Op: OpEq, Value: String(pick(r, mbCities))}
		second = Constraint{Field: "created", Op: pick(r, rangeOps),
			Value: pick(r, []Value{Time(t0.Add(time.Duration(r.Intn(20)) * time.Minute)), Time(t0.Add(90 * time.Second)), String("t0")})}
	case 1: // k,x
		first = Constraint{Field: "k", Op: OpEq, Value: pick(r, []Value{Int(int64(r.Intn(7))), Float(float64(r.Intn(7))), Float(2.5), String("2")})}
		second = Constraint{Field: "x", Op: pick(r, rangeOps), Value: pick(r, []Value{Float(pick(r, mbFloats)), Int(int64(r.Intn(3) - 1))})}
	default: // n,city
		first = Constraint{Field: "n", Op: OpEq, Value: pick(r, []Value{Int(int64(r.Intn(9) - 4)), Float(1), Float(0.5)})}
		second = Constraint{Field: "city", Op: pick(r, append([]Op{OpPrefix}, rangeOps...)), Value: String(pick(r, []string{"s", "sf", "", "nyc"}))}
	}
	where := []Constraint{first, second}
	if r.Intn(3) == 0 { // a second bound on the same column
		third := second
		third.Op = pick(r, rangeOps)
		where = append(where, third)
	}
	r.Shuffle(len(where), func(i, j int) { where[i], where[j] = where[j], where[i] })
	return where, second.Field
}

func randomQuery(r *rand.Rand) Query {
	q := Query{Table: "mb", OrderBy: pick(r, mbOrders), Desc: r.Intn(2) == 0}
	if r.Intn(3) == 0 {
		var second string
		q.Where, second = randomCompositeWhere(r)
		q.OrderBy = pick(r, []string{second, second, q.OrderBy}) // mostly the order the index streams
	}
	for i := r.Intn(3); i > 0 && len(q.Where) < 3; i-- {
		q.Where = append(q.Where, randomConstraint(r))
	}
	if r.Intn(2) == 0 {
		q.Limit = 1 + r.Intn(6)
	}
	if r.Intn(3) == 0 {
		q.Offset = r.Intn(5)
	}
	return q
}

// oracleMatch is the operators' definition, written out the naive way.
func oracleMatch(row Row, where []Constraint) bool {
	for _, c := range where {
		v := row[c.Field]
		if v.IsNull() {
			return false // a null matches no operator, not_equal included
		}
		cmp := Compare(v, c.Value)
		ok := false
		switch c.Op {
		case OpEq:
			ok = cmp == 0
		case OpNe:
			ok = cmp != 0
		case OpLt:
			ok = cmp < 0
		case OpLe:
			ok = cmp <= 0
		case OpGt:
			ok = cmp > 0
		case OpGe:
			ok = cmp >= 0
		case OpPrefix:
			ok = v.Kind == KindString && c.Value.Kind == KindString && strings.HasPrefix(v.Str, c.Value.Str)
		case OpContains:
			ok = v.Kind == KindString && c.Value.Kind == KindString && strings.Contains(v.Str, c.Value.Str)
		case OpIn:
			ok = slices.ContainsFunc(c.Values, func(w Value) bool { return Compare(v, w) == 0 })
		}
		if !ok {
			return false
		}
	}
	return true
}

// oracleSelect answers q from the oracle's rows: every match, ordered by
// q.OrderBy (by primary key without one), then paged.
func oracleSelect(rows map[string]Row, q Query) []Row {
	var out []Row
	for _, r := range rows {
		if oracleMatch(r, q.Where) {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b Row) int { return strings.Compare(a["id"].Str, b["id"].Str) })
	if q.OrderBy != "" {
		slices.SortStableFunc(out, func(a, b Row) int {
			if q.Desc {
				return Compare(b[q.OrderBy], a[q.OrderBy])
			}
			return Compare(a[q.OrderBy], b[q.OrderBy])
		})
	}
	out = out[min(q.Offset, len(out)):]
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

func ids(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r["id"].Str
	}
	return out
}

func sameIDs(a, b []Row) bool { return slices.Equal(ids(a), ids(b)) }

// sameIDSet is sameIDs ignoring order.
func sameIDSet(a, b []Row) bool {
	x, y := ids(a), ids(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

// sameOrderKeys reports whether a and b hold the same sequence of col
// values, which is all an ORDER BY fixes when values tie.
func sameOrderKeys(a, b []Row, col string) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool { return Compare(x[col], y[col]) == 0 })
}

// sameAnswer reports whether got is a correct answer where want is one:
// with an ORDER BY the same sequence of order values, without one (scan
// order is then the plan's business) the same count; either way, rows the
// query matches and no row twice. The full match set (limit and offset
// off) pins membership exactly.
func sameAnswer(got, want []Row, q Query, all map[string]Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if q.OrderBy != "" && !sameOrderKeys(got, want, q.OrderBy) {
		return fmt.Errorf("order keys differ")
	}
	seen := map[string]bool{}
	for _, r := range got {
		id := r["id"].Str
		if seen[id] || all[id] == nil || !oracleMatch(all[id], q.Where) || !sameRow(r, all[id]) {
			return fmt.Errorf("row %s is repeated, absent, unmatched or stale", id)
		}
		seen[id] = true
	}
	if q.Limit == 0 && q.Offset == 0 {
		for _, r := range want {
			if !seen[r["id"].Str] {
				return fmt.Errorf("row %s missing", r["id"].Str)
			}
		}
	}
	return nil
}

// visitAll is SelectFunc copying what it is lent, stopping after stop rows
// (no stop when stop ≤ 0).
func visitAll(s *Store, q Query, stop int) ([]Row, Explain, error) {
	var out []Row
	ex, err := s.SelectFunc(context.Background(), q, func(r Row) bool {
		out = append(out, r.Clone())
		return stop <= 0 || len(out) < stop
	})
	return out, ex, err
}

// checkQuery runs q every way the store offers, holds each answer to the
// oracle's, and returns the plan's Explain.
func checkQuery(t *testing.T, s *Store, oracle map[string]Row, q Query, r *rand.Rand) Explain {
	t.Helper()
	sel, ex, err := s.SelectExplain(q)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleSelect(oracle, q)
	if err := sameAnswer(sel, want, q, oracle); err != nil {
		t.Fatalf("Select %+v: %v\n got  %v\n want %v", q, err, ids(sel), ids(want))
	}
	visited, vex, err := visitAll(s, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(visited, sel) || vex != ex {
		t.Fatalf("SelectFunc %+v: %v %+v, Select %v %+v", q, ids(visited), vex, ids(sel), ex)
	}
	forced := q
	forced.ForceScan = true
	frows, _, err := s.SelectExplain(forced)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAnswer(frows, want, q, oracle); err != nil {
		t.Fatalf("ForceScan twin of %+v: %v\n planned %v\n forced  %v", q, err, ids(sel), ids(frows))
	}
	if len(sel) > 0 {
		k := 1 + r.Intn(len(sel))
		prefix, pex, err := visitAll(s, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(prefix, sel[:k]) || pex.Scanned > ex.Scanned {
			t.Fatalf("stopping %+v after %d rows saw %v (scanned %d), Select %v (scanned %d)", q, k, ids(prefix), pex.Scanned, ids(sel), ex.Scanned)
		}
	}
	return ex
}

// TestSelectFuncModelBased drives random insert/update/delete/batch
// sequences, a refused batch among them, and after every step checks
// random queries against the oracle. It also checks that the composite
// indexes drove queries, streamed in both directions.
func TestSelectFuncModelBased(t *testing.T) {
	plans := map[string]int{} // streamed queries by index and direction
	tally := func(ex Explain, q Query) {
		switch {
		case !ex.Ordered:
		case q.Desc:
			plans[ex.Index+" desc"]++
		default:
			plans[ex.Index+" asc"]++
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewMemory()
		if err := s.CreateTable(mbSchema()); err != nil {
			t.Fatal(err)
		}
		oracle := map[string]Row{}
		var live []string
		next := 0
		for step := 0; step < 120; step++ {
			var muts []Mutation
			nmut := 1
			if r.Intn(4) == 0 {
				nmut = 2 + r.Intn(4)
			}
			staged := maps.Clone(oracle)
			for i := 0; i < nmut; i++ {
				switch k := r.Intn(10); {
				case len(live) == 0 || k < 5:
					id := fmt.Sprintf("k%03d", next)
					next++
					row := randomMBRow(r, id)
					muts = append(muts, Mutation{Kind: MutInsert, Table: "mb", Row: row})
					staged[id] = row
					live = append(live, id)
				case k < 8:
					id := pick(r, live)
					row := randomMBRow(r, id)
					muts = append(muts, Mutation{Kind: MutUpdate, Table: "mb", Row: row})
					staged[id] = row
				default:
					j := r.Intn(len(live))
					muts = append(muts, Mutation{Kind: MutDelete, Table: "mb", PK: live[j]})
					delete(staged, live[j])
					live = append(live[:j], live[j+1:]...)
				}
			}
			if r.Intn(15) == 0 && len(live) > 0 {
				// A batch ending in a duplicate insert is refused whole: the
				// key is live before the batch or inserted earlier in it.
				dup := Mutation{Kind: MutInsert, Table: "mb", Row: randomMBRow(r, pick(r, live))}
				if err := s.Batch(append(muts, dup)); err == nil {
					t.Fatal("batch with a duplicate insert applied")
				}
				live = slices.Sorted(maps.Keys(oracle))
				q := randomQuery(r)
				tally(checkQuery(t, s, oracle, q, r), q)
				continue
			}
			var err error
			if len(muts) == 1 {
				m := muts[0]
				switch m.Kind {
				case MutInsert:
					err = s.Insert("mb", m.Row)
				case MutUpdate:
					err = s.Update("mb", m.Row)
				case MutDelete:
					err = s.Delete("mb", m.PK)
				}
			} else {
				err = s.Batch(muts)
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			oracle = staged
			for i := 0; i < 6; i++ {
				q := randomQuery(r)
				tally(checkQuery(t, s, oracle, q, r), q)
			}
		}
		dump(t, s)
	}
	for _, want := range []string{"city,created asc", "city,created desc", "k,x asc", "k,x desc", "n,city asc", "n,city desc"} {
		if plans[want] == 0 {
			t.Errorf("no query streamed through %s; streamed plans: %v", want, plans)
		}
	}
}

// TestSelectFuncConcurrentWriters runs visitors beside writers. No oracle
// can say which state a reader saw, so each answer is checked for what
// holds in every state: each row lent satisfies the query, comes once, in
// order, within the limit. Under -race it also checks that a lent row is
// never written while a visitor reads it.
func TestSelectFuncConcurrentWriters(t *testing.T) {
	s := NewMemory()
	if err := s.CreateTable(mbSchema()); err != nil {
		t.Fatal(err)
	}
	const writers, readers, steps = 2, 2, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			var live []string
			for i := 0; i < steps; i++ {
				var err error
				switch k := r.Intn(10); {
				case len(live) == 0 || k < 5:
					id := fmt.Sprintf("w%d-%03d", w, i)
					err = s.Insert("mb", randomMBRow(r, id))
					live = append(live, id)
				case k < 8:
					err = s.Update("mb", randomMBRow(r, pick(r, live)))
				default:
					j := r.Intn(len(live))
					err = s.Delete("mb", live[j])
					live = append(live[:j], live[j+1:]...)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + rd)))
			for i := 0; i < steps; i++ {
				q := randomQuery(r)
				var prevKey Value // the previous row's ORDER BY value, copied out
				seen := map[string]bool{}
				n := 0
				_, err := s.SelectFunc(context.Background(), q, func(row Row) bool {
					n++
					id := row["id"].Str
					order := 0
					if n > 1 && q.OrderBy != "" {
						order = Compare(prevKey, row[q.OrderBy])
					}
					switch {
					case !oracleMatch(row, q.Where):
						t.Errorf("%+v lent unmatched row %s", q, id)
					case seen[id]:
						t.Errorf("%+v lent row %s twice", q, id)
					case q.Limit > 0 && n > q.Limit:
						t.Errorf("%+v lent %d rows past its limit", q, n)
					case q.Desc && order < 0, !q.Desc && order > 0:
						t.Errorf("%+v lent rows out of order", q)
					}
					seen[id] = true
					prevKey = row[q.OrderBy]
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	dump(t, s)
}
