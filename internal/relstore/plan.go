package relstore

// plan is how a query reads its table: the postings of one index between
// two keys, or, with idx nil, every row in primary-key order.
type plan struct {
	idx    *index
	lo, hi string // the posting range [lo, hi); hi "" is unbounded
	// rank is what bounds the range: 0 equalities, 1 a prefix, 2
	// comparisons, 3 nothing, the index being read only for its order.
	rank int
	// bound counts the leading index columns the range is bounded on.
	bound    int
	streamed bool // posting order is result order
}

// plan picks the index q reads through. The lowest rank wins, then the
// most columns bound, then a plan that streams, then the index with fewer
// columns: an equality that pins all of a one-column index beats the same
// equality on the first column of a wider one, whose range spans every
// value of the columns after it. With no index usable, the plan is a full
// scan.
func (t *table) plan(q Query) plan {
	best := plan{streamed: q.OrderBy == ""}
	for _, ix := range t.indexes {
		if p, ok := ix.plan(q); ok && (best.idx == nil || p.better(best)) {
			best = p
		}
	}
	return best
}

func (p plan) better(o plan) bool {
	switch {
	case p.rank != o.rank:
		return p.rank < o.rank
	case p.bound != o.bound:
		return p.bound > o.bound
	case p.streamed != o.streamed:
		return p.streamed
	}
	return len(p.idx.cols) < len(o.idx.cols)
}

// plan bounds ix's postings by q: equalities on its leading columns, then
// comparisons or a prefix on the next column. ok is false when ix holds no
// posting for some row q can match, or bounds nothing and cannot supply
// q's order either.
func (ix *index) plan(q Query) (_ plan, ok bool) {
	p := plan{idx: ix, rank: 3}
	var prefix []byte // the encoded values the equalities pin
	for ; p.bound < len(ix.cols); p.bound++ {
		v, ok := eqValue(q.Where, ix.cols[p.bound])
		if !ok {
			break
		}
		prefix = appendKeyValue(prefix, v)
		p.rank = 0
	}
	pinned := p.bound
	p.lo = string(prefix)
	p.hi, _ = successor(prefix)
	if p.bound < len(ix.cols) && p.narrow(prefix, q.Where, ix.cols[p.bound]) {
		p.bound++
	}
	// A row null in a column the range leaves unbound has no posting.
	for _, c := range ix.cols[p.bound:] {
		if c.Nullable {
			return plan{}, false
		}
	}
	// Under pinned leading values, postings run in the next column's order.
	p.streamed = q.OrderBy == ""
	for _, c := range ix.cols[:min(pinned+1, len(ix.cols))] {
		p.streamed = p.streamed || c.Name == q.OrderBy
	}
	return p, p.bound > 0 || (p.streamed && q.OrderBy != "")
}

// narrow intersects p's range with every constraint in where on col that
// the index can answer, the column after the pinned prefix, and reports
// whether one did.
func (p *plan) narrow(prefix []byte, where []Constraint, col Column) bool {
	narrowed := false
	for _, c := range where {
		if c.Field != col.Name {
			continue
		}
		lo, hi, rank, ok := rangeOf(prefix, c, col.Kind)
		if !ok {
			continue
		}
		p.lo = max(p.lo, lo)
		if hi != "" && (p.hi == "" || hi < p.hi) {
			p.hi = hi
		}
		p.rank = min(p.rank, rank)
		narrowed = true
	}
	return narrowed
}

// eqValue returns the first equality constant on col, coerced to its kind.
func eqValue(where []Constraint, col Column) (Value, bool) {
	for _, c := range where {
		if c.Field == col.Name && c.Op == OpEq {
			if v, ok := coerce(c.Value, col.Kind); ok {
				return v, true
			}
		}
	}
	return Value{}, false
}

// rangeOf returns the keys, under prefix, of the rows a comparison or a
// prefix constraint on a column of the given kind matches, as the range
// [lo, hi) with "" for a side it leaves open, and the constraint's rank.
// ok is false for a constraint the index cannot answer.
func rangeOf(prefix []byte, c Constraint, kind Kind) (lo, hi string, rank int, ok bool) {
	switch c.Op {
	case OpPrefix:
		if kind != KindString || c.Value.Kind != KindString {
			return "", "", 0, false
		}
		b := appendEscaped(prefix, c.Value.Str)
		hi, _ = successor(b)
		return string(b), hi, 1, true
	case OpLt, OpLe, OpGt, OpGe:
		v, ok := coerce(c.Value, kind)
		if !ok {
			return "", "", 0, false
		}
		at := appendKeyValue(prefix, v) // every key of a row equal to v begins so
		past, ok := successor(at)
		switch {
		case c.Op == OpLt:
			return "", string(at), 2, true
		case c.Op == OpLe:
			return "", past, 2, true
		case c.Op == OpGe:
			return string(at), "", 2, true
		case ok: // OpGt
			return past, "", 2, true
		}
	}
	return "", "", 0, false
}

// scanIndex visits the rows whose postings lie in p's range, in posting
// order, or the reverse when desc.
func (t *table) scanIndex(p plan, desc bool, visit func(Tuple) bool) {
	emit := func(key string) bool { return visit(t.rows[p.idx.pkOf(key)]) }
	if desc {
		p.idx.tree.DescendRange(p.lo, p.hi, emit)
	} else {
		p.idx.tree.AscendRange(p.lo, p.hi, emit)
	}
}

// scanAll visits every row in primary-key order (descending when desc).
func (t *table) scanAll(desc bool, visit func(Tuple) bool) {
	emit := func(pk string) bool { return visit(t.rows[pk]) }
	if desc {
		t.pks.DescendRange("", "", emit)
	} else {
		t.pks.AscendRange("", "", emit)
	}
}
