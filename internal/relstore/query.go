package relstore

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

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
	// Index is the name of the secondary index that drove the scan, as
	// Schema.Indexes declares it ("city", "city,created"), or "" for a
	// full table scan.
	Index string
	// Ordered reports that the scan streamed rows already in the
	// requested ORDER BY order — within the index's range the ORDER BY
	// column is the first one no equality pins — so no sort ran and Limit
	// could stop the scan early. Always false when the query has no ORDER
	// BY (result order is then scan order, and no sort would have run
	// anyway).
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
	// Without an index, a full scan in primary-key order (either
	// direction) streams when the query has no ORDER BY.
	p := plan{streamed: q.OrderBy == ""}
	if !q.ForceScan {
		p = t.plan(q)
	}

	// A streamed scan emits rows already in result order, so it hands rows
	// to fn as it meets them, skipping the first Offset matches and
	// stopping after Limit more. This is what keeps "newest instances of a
	// city first" fast at the paper's million-instance scale: with a
	// (city, created) index that search touches Limit postings, not every
	// instance of the city. Any other scan gathers its matches for the
	// sort below.
	emitted := 0
	var (
		matchBuf *[]Row
		matched  []Row
		visit    func(Row) bool
	)
	if p.streamed {
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

	if p.idx != nil {
		ex.Index = p.idx.name
		t.scanIndex(p, p.streamed && q.Desc, visit)
	} else {
		t.scanAll(q.Desc && q.OrderBy == "", visit)
	}
	ex.Ordered = p.streamed && q.OrderBy != ""

	if p.streamed {
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
