package relstore

import (
	"cmp"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// monoBase carries a monotonic clock reading into the fuzzed times.
var monoBase = time.Now()

// fuzzValue makes a value of kind k from fuzz bytes: a string is the
// bytes; an int, a float (NaN payloads and −0 included) or a bool is read
// from the first 8 bytes; a time takes seconds and nanoseconds from the
// first 12, a zone offset in quarter hours from the 13th and, where the
// 14th is odd, a monotonic reading.
func fuzzValue(k Kind, b []byte) Value {
	var w [14]byte
	copy(w[:], b)
	n := binary.BigEndian.Uint64(w[:8])
	switch k {
	case KindString:
		return String(string(b))
	case KindInt:
		return Int(int64(n))
	case KindFloat:
		return Float(math.Float64frombits(n))
	case KindBool:
		return Bool(n>>63 == 1)
	}
	tm := time.Unix(int64(n), int64(binary.BigEndian.Uint32(w[8:12])%1e9))
	if w[13]&1 == 1 {
		tm = monoBase.Add(time.Duration(n))
	}
	if off := int8(w[12]); off != 0 {
		tm = tm.In(time.FixedZone("", int(off)*15*60))
	}
	return Time(tm)
}

func sign(c int) int { return cmp.Compare(c, 0) }

// FuzzIndexKey holds the index key encoding to Compare. Two values of one
// kind encode in the order Compare puts them. A posting of a two-column
// index orders by its first column, then its second, then its primary
// key, which it gives back. And the range the planner seeks for an
// equality on the first column and a comparison or a prefix on the second
// holds exactly the postings of the rows that satisfy both.
func FuzzIndexKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, kinds byte, a1, a2, b1, b2 []byte, op byte) {
		k1, k2 := Kind(kinds%5+1), Kind(kinds/5%5+1)
		va1, va2, vb1, vb2 := fuzzValue(k1, a1), fuzzValue(k2, a2), fuzzValue(k1, b1), fuzzValue(k2, b2)
		for _, pair := range [][2]Value{{va1, vb1}, {va2, vb2}} {
			x, y := pair[0], pair[1]
			got := strings.Compare(string(appendKeyValue(nil, x)), string(appendKeyValue(nil, y)))
			if sign(got) != sign(Compare(x, y)) {
				t.Fatalf("keys of %#v and %#v compare %d, the values %d", x, y, got, Compare(x, y))
			}
		}

		sc := Schema{Table: "t", Key: "id", Indexes: []string{"c1,c2"},
			Columns: []Column{{Name: "id", Kind: KindString}, {Name: "c1", Kind: k1}, {Name: "c2", Kind: k2}}}
		ix := newIndex(&sc, "c1,c2")
		rowA, pkA := Row{"c1": va1, "c2": va2}, "\x00a"+string(a2)
		rowB, pkB := Row{"c1": vb1, "c2": vb2}, "\x00b"+string(b2)
		ka, _ := ix.appendKey(nil, rowA, pkA)
		kb, _ := ix.appendKey(nil, rowB, pkB)
		want := cmp.Or(sign(Compare(va1, vb1)), sign(Compare(va2, vb2)), strings.Compare(pkA, pkB))
		if got := strings.Compare(string(ka), string(kb)); sign(got) != want {
			t.Fatalf("postings (%#v, %#v, %q) and (%#v, %#v, %q) compare %d, want %d", va1, va2, pkA, vb1, vb2, pkB, got, want)
		}
		if ix.pkOf(string(ka)) != pkA || ix.pkOf(string(kb)) != pkB {
			t.Fatalf("postings give back primary keys %q and %q, want %q and %q", ix.pkOf(string(ka)), ix.pkOf(string(kb)), pkA, pkB)
		}

		c := Constraint{Field: "c2", Op: []Op{OpLt, OpLe, OpGt, OpGe, OpPrefix}[op%5], Value: vb2}
		where := []Constraint{{Field: "c1", Op: OpEq, Value: va1}, c}
		p, ok := ix.plan(Query{Where: where})
		if !ok || p.bound == 0 {
			t.Fatalf("no plan pins c1 = %#v", va1)
		}
		for _, r := range []struct {
			key string
			row Row
		}{{string(ka), rowA}, {string(kb), Row{"c1": vb1, "c2": va2}}} {
			k, _ := ix.appendKey(nil, r.row, "\x00")
			key := string(k)
			in := key >= p.lo && (p.hi == "" || key < p.hi)
			match := matchesAll(where, r.row)
			// With the second constraint left to the scan, the range is
			// every posting under the first column's value.
			if in != match && (p.bound == 2 || !in) {
				t.Fatalf("%s %#v under c1 = %#v (bound %d): posting of %v in range %v, row matches %v",
					c.Op, c.Value, va1, p.bound, r.row, in, match)
			}
		}
	})
}

// TestCoerceAgreesWithCompare: a constant coerced to a column's kind sits
// among the column's values where Compare puts the original, and one that
// cannot be is refused.
func TestCoerceAgreesWithCompare(t *testing.T) {
	ints := []int64{math.MinInt64, -1 << 53, -3, -1, 0, 1, 2, 3, 1<<53 - 1, 1 << 53, 1<<53 + 1, math.MaxInt64}
	floats := []float64{math.Inf(-1), -1 << 53, -2, -0.5, math.Copysign(0, -1), 0, 2, 2.5, 1<<53 - 1, 1 << 53, math.Inf(1), math.NaN()}
	for _, f := range floats {
		v, ok := coerce(Float(f), KindInt)
		if want := f == math.Trunc(f) && math.Abs(f) < 1<<53; ok != want {
			t.Fatalf("coerce(%v, int) ok = %v", f, ok)
		}
		for _, n := range ints {
			if ok && sign(Compare(Int(n), v)) != sign(Compare(Int(n), Float(f))) {
				t.Fatalf("%d against %v coerced to %#v", n, f, v)
			}
			if w, _ := coerce(Int(n), KindFloat); sign(Compare(Float(f), w)) != sign(Compare(Float(f), Int(n))) {
				t.Fatalf("%v against %d coerced to %#v", f, n, w)
			}
		}
	}
	for _, v := range []Value{{}, String("2"), Bool(true), Time(t0)} {
		if _, ok := coerce(v, KindInt); ok {
			t.Fatalf("coerce(%#v, int) succeeded", v)
		}
	}
}
