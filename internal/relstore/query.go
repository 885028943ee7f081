package relstore

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"gallery/internal/btree"
	"gallery/internal/obs/trace"
)

// Op is a constraint operator. The set mirrors what Gallery's model search
// API exposes (paper Listing 5: equal, smaller_than, ...).
type Op uint8

// Constraint operators.
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpPrefix   // string prefix match
	OpContains // string substring match
	OpIn       // equals any of Values
)

// String names the operator, matching the wire names used by the service.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "equal"
	case OpNe:
		return "not_equal"
	case OpLt:
		return "smaller_than"
	case OpLe:
		return "smaller_or_equal"
	case OpGt:
		return "greater_than"
	case OpGe:
		return "greater_or_equal"
	case OpPrefix:
		return "prefix"
	case OpContains:
		return "contains"
	case OpIn:
		return "in"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ParseOp converts a wire operator name to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "equal":
		return OpEq, nil
	case "not_equal":
		return OpNe, nil
	case "smaller_than":
		return OpLt, nil
	case "smaller_or_equal":
		return OpLe, nil
	case "greater_than":
		return OpGt, nil
	case "greater_or_equal":
		return OpGe, nil
	case "prefix":
		return OpPrefix, nil
	case "contains":
		return OpContains, nil
	case "in":
		return OpIn, nil
	default:
		return 0, fmt.Errorf("relstore: unknown operator %q", s)
	}
}

// Constraint is one field/operator/value predicate.
type Constraint struct {
	Field  string
	Op     Op
	Value  Value
	Values []Value // OpIn only
}

// Query selects rows from a table.
type Query struct {
	Table string
	Where []Constraint
	// OrderBy sorts results by the named column; empty keeps primary-key
	// order (or index-scan order when an index drives the query).
	OrderBy string
	Desc    bool
	Limit   int // 0 means unlimited
	Offset  int
	// ForceScan bypasses index selection, used by the search-index
	// ablation (DESIGN.md A5).
	ForceScan bool
}

// Explain reports how a query executed.
type Explain struct {
	// Index is the column whose secondary index drove the scan, or ""
	// for a full table scan.
	Index string
	// Ordered reports that the scan streamed rows already in the
	// requested ORDER BY order — either the ORDER BY column's own index
	// drove the scan, or the driving constraint shares its column with
	// ORDER BY — so no sort ran and Limit could stop the scan early.
	// Always false when the query has no ORDER BY (result order is then
	// scan order, and no sort would have run anyway).
	Ordered bool
	// Scanned counts rows (or index postings) examined.
	Scanned int
	// Matched counts rows that satisfied all constraints, before
	// offset/limit.
	Matched int
}

// matches reports whether row satisfies c.
func (c Constraint) matches(row Row) bool {
	v, ok := row[c.Field]
	if !ok {
		v = Value{} // treat absent as null
	}
	switch c.Op {
	case OpEq:
		return !v.IsNull() && Equal(v, c.Value)
	case OpNe:
		// SQL three-valued logic: NULL <> x is unknown, so a null (or
		// absent) field matches no comparison operator — not_equal
		// included. Rows lacking the field are excluded, consistent with
		// every other operator here and with the search API the paper's
		// Listing 5 mirrors.
		return !v.IsNull() && !Equal(v, c.Value)
	case OpLt:
		return !v.IsNull() && Compare(v, c.Value) < 0
	case OpLe:
		return !v.IsNull() && Compare(v, c.Value) <= 0
	case OpGt:
		return !v.IsNull() && Compare(v, c.Value) > 0
	case OpGe:
		return !v.IsNull() && Compare(v, c.Value) >= 0
	case OpPrefix:
		return v.Kind == KindString && c.Value.Kind == KindString &&
			strings.HasPrefix(v.Str, c.Value.Str)
	case OpContains:
		return v.Kind == KindString && c.Value.Kind == KindString &&
			strings.Contains(v.Str, c.Value.Str)
	case OpIn:
		if v.IsNull() {
			return false
		}
		for _, cand := range c.Values {
			if Equal(v, cand) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// indexable reports whether the constraint can seed an index scan and how
// selective it is likely to be (lower is better).
func (c Constraint) indexable() (rank int, ok bool) {
	switch c.Op {
	case OpEq:
		return 0, true
	case OpPrefix:
		return 1, true
	case OpGe, OpGt, OpLe, OpLt:
		return 2, true
	default:
		return 0, false
	}
}

// Select runs a query and returns row copies.
func (s *Store) Select(q Query) ([]Row, error) {
	rows, _, err := s.selectCopies(context.Background(), q)
	return rows, err
}

// SelectCtx is Select with trace attribution (see SelectFunc).
func (s *Store) SelectCtx(ctx context.Context, q Query) ([]Row, error) {
	rows, _, err := s.selectCopies(ctx, q)
	return rows, err
}

// SelectExplain runs a query and also reports how it executed.
func (s *Store) SelectExplain(q Query) ([]Row, Explain, error) {
	return s.selectCopies(context.Background(), q)
}

// selectCopies is SelectFunc collecting a deep copy of every row: the
// copying half of the store's copy-or-visit read contract.
func (s *Store) selectCopies(ctx context.Context, q Query) ([]Row, Explain, error) {
	out := []Row{}
	ex, err := s.SelectFunc(ctx, q, func(r Row) bool {
		out = append(out, r.Clone())
		return true
	})
	if err != nil {
		return nil, ex, err
	}
	return out, ex, nil
}

// SelectFunc runs a query and calls fn with each result row, in result
// order, until the rows run out or fn returns false. Select, SelectCtx and
// SelectExplain are SelectFunc copying each row, so the plan, the order and
// the Explain are the same whichever a caller uses; the Explain counts what
// the scan examined before it ended, so stopping early makes the counts
// smaller. A negative Offset counts as zero and a Limit ≤ 0 as no limit.
//
// fn is lent the stored row itself, under the store's read lock. It must
// not keep the row (the map) past the call, must not modify it, and must
// not block. It must not call back into the store either: a second read
// lock queued behind a waiting writer deadlocks. Values copied out of the
// row, strings included, are the caller's to keep — strings are immutable.
// Use it where rows become something else straight away; Select where the
// caller keeps or edits rows.
//
// With a sampled ctx the query gets a relstore.select span annotated with
// the table, the index that drove it, the order (streamed or sorted), the
// rows scanned and the rows passed to fn.
func (s *Store) SelectFunc(ctx context.Context, q Query, fn func(Row) bool) (Explain, error) {
	_, span := trace.Start(ctx, "relstore.select")
	ex, rows, err := s.selectFunc(q, fn)
	if span != nil {
		span.Annotate("table", q.Table)
		span.Annotate("index", ex.Index)
		if ex.Ordered {
			span.Annotate("order", "streamed")
		} else if q.OrderBy != "" {
			span.Annotate("order", "sorted")
		}
		span.AnnotateInt("scanned", int64(ex.Scanned))
		span.AnnotateInt("rows", int64(rows))
	}
	span.EndErr(err)
	return ex, err
}

// maxKeptMatchBuf bounds the match buffers matchBufs keeps, so one huge
// sorted query does not pin its size for good.
const maxKeptMatchBuf = 16 << 10

// matchBufs recycles the buffer in which a sorted query gathers its
// matches, so what a sorted select allocates follows the rows it returns,
// not the rows it matched.
var matchBufs = sync.Pool{New: func() any { return new([]Row) }}

// selectFunc plans and runs q, passing result rows to fn, and reports how
// many it passed.
func (s *Store) selectFunc(q Query, fn func(Row) bool) (Explain, int, error) {
	s.countOp("select", q.Table)
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[q.Table]
	if !ok {
		return Explain{}, 0, fmt.Errorf("%w: %s", ErrNoTable, q.Table)
	}
	var ex Explain
	driver := -1 // index into q.Where of the constraint driving an index scan
	if !q.ForceScan {
		bestRank := 99
		for i, c := range q.Where {
			rank, can := c.indexable()
			if !can {
				continue
			}
			if _, hasIdx := t.indexes[c.Field]; !hasIdx {
				continue
			}
			// Lower rank wins; on a rank tie prefer the constraint whose
			// column is also the ORDER BY column, since that scan streams
			// results in order and skips the sort entirely.
			if rank < bestRank ||
				(rank == bestRank && driver >= 0 &&
					c.Field == q.OrderBy && q.Where[driver].Field != q.OrderBy) {
				bestRank, driver = rank, i
			}
		}
	}

	// streamed reports that the scan will emit rows already in result
	// order, which makes the post-scan sort redundant and lets Limit stop
	// the scan early. Three scans qualify:
	//
	//   - an index-driven scan whose constraint column is the ORDER BY
	//     column (index order IS the requested order; descending requests
	//     walk the index downward),
	//   - an index-driven scan with no ORDER BY (result order is defined
	//     as scan order),
	//   - the ordered-index path below, and full scans with no ORDER BY
	//     (primary-key order, walked in either direction).
	//
	// This is what keeps "newest instances first" queries fast at the
	// paper's million-instance scale: the registry's dominant search shape
	// (filter + ORDER BY created DESC LIMIT n) touches n postings, not
	// every match.
	streamed := driver >= 0 && (q.OrderBy == "" || q.OrderBy == q.Where[driver].Field)

	// Ordered-index path: when no constraint drives the scan but the
	// ORDER BY column has an index over a non-nullable column, stream the
	// index in order. (Nullable columns are skipped: their null rows are
	// absent from the index, so it cannot supply the full result set.
	// The driver path above has no such concern — range and equality
	// constraints exclude nulls anyway.)
	ordered := false
	if driver < 0 && !q.ForceScan && q.OrderBy != "" {
		if _, hasIdx := t.indexes[q.OrderBy]; hasIdx {
			if col, ok := t.schema.col(q.OrderBy); ok && !col.Nullable {
				ordered = true
				streamed = true
			}
		}
	}
	if driver < 0 && !ordered && q.OrderBy == "" {
		streamed = true // full scan in primary-key order (either direction)
	}

	// A streamed scan hands rows to fn as it meets them, skipping the
	// first Offset matches and stopping after Limit more; only there is
	// stopping early safe, because scan order is result order. Any other
	// scan gathers its matches for the sort below.
	emitted := 0
	var (
		matchBuf *[]Row
		matched  []Row
		visit    func(Row) bool
	)
	if streamed {
		visit = func(row Row) bool {
			ex.Scanned++
			if !matchesAll(q.Where, row) {
				return true
			}
			ex.Matched++
			if ex.Matched <= q.Offset {
				return true
			}
			emitted++
			return fn(row) && (q.Limit <= 0 || emitted < q.Limit)
		}
	} else {
		matchBuf = matchBufs.Get().(*[]Row)
		matched = (*matchBuf)[:0]
		visit = func(row Row) bool {
			ex.Scanned++
			if matchesAll(q.Where, row) {
				ex.Matched++
				matched = append(matched, row)
			}
			return true
		}
	}

	switch {
	case driver >= 0:
		c := q.Where[driver]
		ex.Index = c.Field
		ex.Ordered = streamed && q.OrderBy != ""
		if streamed && q.Desc {
			t.scanIndexDesc(c, visit)
		} else {
			t.scanIndex(c, visit)
		}
	case ordered:
		ex.Index = q.OrderBy
		ex.Ordered = true
		idx := t.indexes[q.OrderBy]
		emit := func(it btree.Item) bool {
			return visit(t.rows[it.(indexEntry).pk])
		}
		if q.Desc {
			idx.Descend(emit)
		} else {
			idx.Ascend(emit)
		}
	default:
		t.scanAll(q.Desc && q.OrderBy == "", visit)
	}

	if streamed {
		return ex, emitted, nil
	}

	// Order, then page. Only scans that did not stream get here, and every
	// one of them has an ORDER BY. Tie-break note: a streamed descending
	// scan yields (value desc, pk desc) within equal values, while this
	// stable sort preserves scan order; order among equal ORDER BY values
	// is unspecified either way.
	col := q.OrderBy
	slices.SortStableFunc(matched, func(a, b Row) int {
		if q.Desc {
			return Compare(b[col], a[col])
		}
		return Compare(a[col], b[col])
	})
	page := matched[min(max(q.Offset, 0), len(matched)):]
	if q.Limit > 0 && len(page) > q.Limit {
		page = page[:q.Limit]
	}
	for _, r := range page {
		emitted++
		if !fn(r) {
			break
		}
	}
	if cap(matched) <= maxKeptMatchBuf {
		clear(matched) // the pool must not keep deleted rows alive
		*matchBuf = matched[:0]
		matchBufs.Put(matchBuf)
	}
	return ex, emitted, nil
}

// matchesAll reports whether row satisfies every constraint.
func matchesAll(where []Constraint, row Row) bool {
	for _, c := range where {
		if !c.matches(row) {
			return false
		}
	}
	return true
}

// scanAll visits every row in primary-key order (descending when desc).
func (t *table) scanAll(desc bool, visit func(Row) bool) {
	emit := func(it btree.Item) bool {
		return visit(t.rows[string(it.(pkItem))])
	}
	if desc {
		t.pks.Descend(emit)
	} else {
		t.pks.Ascend(emit)
	}
}

// Index-scan bounds use two sentinels around a value's posting run:
// {v, pk: ""} sorts before every real {v, pk} posting (primary keys are
// non-empty) and {v, max: true} sorts after them all. Both let the scan
// seek directly to a run boundary instead of filtering through it — on
// OpGt in particular, the scan lands past the equal-value run in
// O(log n) no matter how many rows share the boundary value.

// scanIndex visits rows via the secondary index on c.Field, bounded by
// c, in ascending (value, pk) order.
func (t *table) scanIndex(c Constraint, visit func(Row) bool) {
	idx := t.indexes[c.Field]
	emit := func(it btree.Item) bool {
		return visit(t.rows[it.(indexEntry).pk])
	}
	switch c.Op {
	case OpEq:
		idx.AscendRange(indexEntry{v: c.Value}, indexEntry{v: c.Value, max: true}, emit)
	case OpPrefix:
		idx.AscendGreaterOrEqual(indexEntry{v: c.Value}, func(it btree.Item) bool {
			e := it.(indexEntry)
			if e.v.Kind != KindString || !strings.HasPrefix(e.v.Str, c.Value.Str) {
				return false
			}
			return visit(t.rows[e.pk])
		})
	case OpGe:
		idx.AscendGreaterOrEqual(indexEntry{v: c.Value}, emit)
	case OpGt:
		idx.AscendGreaterOrEqual(indexEntry{v: c.Value, max: true}, emit)
	case OpLe:
		idx.AscendRange(nil, indexEntry{v: c.Value, max: true}, emit)
	case OpLt:
		idx.AscendRange(nil, indexEntry{v: c.Value}, emit)
	}
}

// scanIndexDesc is scanIndex walking the index downward, so descending
// ORDER BY requests on the constraint column stream without a sort.
func (t *table) scanIndexDesc(c Constraint, visit func(Row) bool) {
	idx := t.indexes[c.Field]
	emit := func(it btree.Item) bool {
		return visit(t.rows[it.(indexEntry).pk])
	}
	switch c.Op {
	case OpEq:
		idx.DescendLessOrEqual(indexEntry{v: c.Value, max: true}, func(it btree.Item) bool {
			e := it.(indexEntry)
			if !Equal(e.v, c.Value) {
				return false
			}
			return visit(t.rows[e.pk])
		})
	case OpPrefix:
		t.descendPrefix(idx, c, visit)
	case OpGe, OpGt:
		idx.Descend(func(it btree.Item) bool {
			e := it.(indexEntry)
			cmp := Compare(e.v, c.Value)
			if cmp < 0 || (cmp == 0 && c.Op == OpGt) {
				return false
			}
			return visit(t.rows[e.pk])
		})
	case OpLe:
		idx.DescendLessOrEqual(indexEntry{v: c.Value, max: true}, emit)
	case OpLt:
		idx.DescendLessOrEqual(indexEntry{v: c.Value}, emit)
	}
}

// descendPrefix walks prefix matches downward, seeking to the prefix's
// upper bound first when one exists.
func (t *table) descendPrefix(idx *btree.Tree, c Constraint, visit func(Row) bool) {
	stop := func(it btree.Item) bool {
		e := it.(indexEntry)
		if e.v.Kind != KindString || !strings.HasPrefix(e.v.Str, c.Value.Str) {
			return false
		}
		return visit(t.rows[e.pk])
	}
	if succ, ok := prefixSuccessor(c.Value.Str); ok {
		idx.DescendLessOrEqual(indexEntry{v: String(succ)}, stop)
		return
	}
	// Prefix is all 0xff bytes: no string upper bound exists. Walk from
	// the top, skipping non-string postings (every other kind sorts above
	// strings), then stop at the first string without the prefix.
	idx.Descend(func(it btree.Item) bool {
		e := it.(indexEntry)
		if e.v.Kind != KindString {
			return true
		}
		return stop(it)
	})
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix, by incrementing the last incrementable byte.
// ok is false when the prefix is empty or all 0xff.
func prefixSuccessor(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}
