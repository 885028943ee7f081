package relstore

import (
	"encoding/binary"
	"math"
	"strings"

	"gallery/internal/btree"
)

// Index keys. A secondary-index posting is one byte string: the
// order-preserving encodings of the index's columns, in the index's
// column order, then the row's primary key. Comparing two postings as
// strings compares their column values as Compare does, column after
// column, and then their primary keys; so one B-tree of strings holds a
// single-column or a composite index, and every constraint the planner
// seeks on becomes a range of bytes (the FoundationDB tuple layer builds
// its indexes the same way).
//
// Each value is encoded by its column's kind (checkRow admits no other):
//
//	string  its bytes with 0x00 escaped as 0x00 0xFF, then 0x00 0x01
//	int     8 bytes big-endian, sign bit flipped
//	float   8 bytes big-endian IEEE bits, the sign bit flipped for a
//	        positive number and every bit for a negative one; −0 is
//	        written as +0 and every NaN as the one quiet NaN, which sorts
//	        above +Inf
//	bool    1 byte, 0 or 1
//	time    the instant: seconds since year 1 as an int, then the
//	        nanoseconds as 4 bytes big-endian
//
// No encoding is a prefix of another of the same kind, so a key splits
// back into its columns unambiguously, and the keys that begin with the
// encodings of some leading values are exactly the rows holding them.
// A row with a null in any of an index's columns has no posting in it.

// keyItem is a B-tree key held as a string, so ordering is string order:
// primary keys in a table's pks tree, postings in its indexes.
type keyItem string

func (k keyItem) Less(than btree.Item) bool { return k < than.(keyItem) }

// index is one secondary index: its Schema.Indexes name, its columns, and
// its postings.
type index struct {
	name string
	cols []Column
	tree *btree.Tree
}

// newIndex returns the empty index a validated schema names.
func newIndex(schema *Schema, name string) *index {
	ix := &index{name: name, tree: btree.New()}
	for _, col := range strings.Split(name, ",") {
		c, _ := schema.col(col)
		ix.cols = append(ix.cols, c)
	}
	return ix
}

// appendKey appends row's posting to dst; ok is false when the row has
// none, because one of the index's columns is null in it.
func (ix *index) appendKey(dst []byte, row Row, pk string) (_ []byte, ok bool) {
	for _, c := range ix.cols {
		v := row[c.Name]
		if v.IsNull() {
			return dst, false
		}
		dst = appendKeyValue(dst, v)
	}
	return append(dst, pk...), true
}

// insert adds row's posting, if it has one.
func (ix *index) insert(row Row, pk string) {
	var buf [64]byte
	if k, ok := ix.appendKey(buf[:0], row, pk); ok {
		ix.tree.ReplaceOrInsert(keyItem(k))
	}
}

// remove deletes row's posting, if it has one.
func (ix *index) remove(row Row, pk string) {
	var buf [64]byte
	if k, ok := ix.appendKey(buf[:0], row, pk); ok {
		ix.tree.Delete(keyItem(k))
	}
}

// pkOf returns the primary key a posting of ix ends with.
func (ix *index) pkOf(key string) string {
	i := 0
	for _, c := range ix.cols {
		switch c.Kind {
		case KindString:
			// An escaped body holds 0x00 only before 0xFF, so the first
			// 0x00 0x01 is the terminator.
			i += strings.Index(key[i:], "\x00\x01") + 2
		case KindBool:
			i++
		case KindTime:
			i += 12
		default:
			i += 8
		}
	}
	return key[i:]
}

// appendKeyValue appends v's order-preserving encoding. v is not null.
func appendKeyValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindString:
		return append(appendEscaped(dst, v.Str), 0x00, 0x01)
	case KindInt:
		return binary.BigEndian.AppendUint64(dst, uint64(v.Int)^1<<63)
	case KindFloat:
		return binary.BigEndian.AppendUint64(dst, floatKey(v.Float))
	case KindBool:
		return append(dst, boolByte(v.Bool))
	default: // KindTime
		// Unix plus the offset wraps back to the seconds Time keeps, even
		// where Unix alone overflows.
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.Time.Unix()+unixToInternal)^1<<63)
		return binary.BigEndian.AppendUint32(dst, uint32(v.Time.Nanosecond()))
	}
}

// appendEscaped appends s with each 0x00 escaped, without the terminator:
// the bytes every encoding of a string with prefix s begins with.
func appendEscaped(dst []byte, s string) []byte {
	for {
		i := strings.IndexByte(s, 0)
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(append(dst, s[:i]...), 0x00, 0xFF)
		s = s[i+1:]
	}
}

func floatKey(f float64) uint64 {
	switch {
	case f == 0:
		f = 0 // −0 == +0
	case f != f:
		return 0x7FF8000000000000 | 1<<63 // the one NaN, above +Inf
	}
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// successor returns the smallest string greater than every string that
// begins with b; ok is false when none exists (b is empty or all 0xFF).
func successor(b []byte) (_ string, ok bool) {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			s := append([]byte(nil), b[:i+1]...)
			s[i]++
			return string(s), true
		}
	}
	return "", false
}

// coerce converts a constant compared with a column of the given kind to
// that kind, so that its encoding sits among the column's keys where
// Compare puts it among the column's values. ok is false where no value of
// the kind does that — a null, another kind, a float no int64 equals
// exactly under Compare's float conversion — and the index then cannot
// answer the constraint, which leaves it to the scan.
func coerce(v Value, kind Kind) (Value, bool) {
	switch {
	case v.Kind == kind: // a column's kind is never null's
		return v, true
	case v.Kind == KindInt && kind == KindFloat:
		return Float(float64(v.Int)), true // the conversion Compare makes
	case v.Kind == KindFloat && kind == KindInt && v.Float == math.Trunc(v.Float) && math.Abs(v.Float) < 1<<53:
		// Below 2^53 every int64 converts to a float on the same side of
		// v.Float as it is of the int.
		return Int(int64(v.Float)), true
	}
	return Value{}, false
}
