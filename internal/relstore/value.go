// Package relstore implements the embedded relational store that holds all
// Gallery metadata and performance metrics.
//
// The paper stores model metadata and metrics in MySQL because they are
// structured and need flexible queries (paper §3.5). This package plays that
// role: typed tables with a string primary key, secondary B-tree indexes,
// constraint-based queries with ordering and limits, atomic multi-row
// batches, and write-ahead-log durability with crash recovery. Reads run
// under a shared lock and either return deep copies (Get, Select) or lend
// each stored row to a visitor for the length of one call (SelectFunc), so
// callers always observe a consistent snapshot and never hold a reference
// to store internals — the property that underpins Gallery's model
// immutability.
package relstore

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates value types storable in a column.
type Kind uint8

// Column kinds.
const (
	KindString Kind = iota + 1
	KindInt
	KindFloat
	KindBool
	KindTime
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed cell value. The zero Value is "null": it has
// kind 0 and compares before every non-null value.
type Value struct {
	Kind  Kind
	Str   string
	Int   int64
	Float float64
	Bool  bool
	Time  time.Time
}

// String constructs a string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, Int: i} }

// Float constructs a float value.
func Float(f float64) Value { return Value{Kind: KindFloat, Float: f} }

// Bool constructs a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Time constructs a time value.
func Time(t time.Time) Value { return Value{Kind: KindTime, Time: t} }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.Kind == 0 }

// numeric reports whether v is int or float, and its float64 view.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// Compare orders two values: negative if v < w, zero if equal, positive if
// v > w. Int and float compare numerically against each other so metric
// thresholds behave as users expect, through float64; two ints compare
// exactly, as their index keys do. Values of genuinely different kinds
// order by kind, which keeps sorts totally ordered even if a constant's
// kind differs from its column's. The order is total over floats too: NaN
// equals NaN and sorts above every other number, +Inf included, as in
// PostgreSQL.
func Compare(v, w Value) int {
	if v.Kind == KindInt && w.Kind == KindInt {
		return cmp.Compare(v.Int, w.Int)
	}
	if vf, ok := v.numeric(); ok {
		if wf, ok := w.numeric(); ok {
			return compareFloat(vf, wf)
		}
	}
	if v.Kind != w.Kind {
		return int(v.Kind) - int(w.Kind)
	}
	switch v.Kind {
	case 0:
		return 0 // both null
	case KindString:
		return strings.Compare(v.Str, w.Str)
	case KindBool:
		switch {
		case v.Bool == w.Bool:
			return 0
		case w.Bool:
			return -1
		default:
			return 1
		}
	case KindTime:
		// By instant, monotonic readings stripped: the log does not keep
		// them, and index keys order by the instant alone.
		return v.Time.Round(0).Compare(w.Time.Round(0))
	default:
		return 0
	}
}

// compareFloat is the float order Compare uses. Without the NaN cases a
// NaN would compare equal to every number, and a B-tree over a column
// holding one would lose postings on update and delete.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	switch aNaN, bNaN := a != a, b != b; {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return 1
	default:
		return -1
	}
}

// Equal reports whether two values compare as equal.
func Equal(v, w Value) bool { return Compare(v, w) == 0 }

// GoString renders the value for diagnostics and test failures.
func (v Value) GoString() string {
	switch v.Kind {
	case 0:
		return "null"
	case KindString:
		return strconv.Quote(v.Str)
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindTime:
		return v.Time.Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// Row is a single table row: a map from column name to value. A row's
// primary key lives in the schema's Key column.
type Row map[string]Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	cp := make(Row, len(r))
	for k, v := range r {
		cp[k] = v
	}
	return cp
}

// Column declares one typed column.
type Column struct {
	Name string
	Kind Kind
	// Nullable permits the null value; non-nullable columns reject it.
	Nullable bool
}

// Schema declares a table: its name, columns, string primary-key column,
// and its secondary indexes.
type Schema struct {
	Table   string
	Columns []Column
	// Key names the primary-key column, which must be a non-nullable
	// string column.
	Key string
	// Indexes names the secondary B-tree indexes to maintain: a column
	// name, or for a composite index its column names joined by commas
	// ("city,created" orders by city, then by created within a city).
	// Indexes are derived from the rows, so CreateTable applies a schema
	// that differs from the stored one only here in place.
	Indexes []string
}

// col returns the declared column with the given name.
func (s *Schema) col(name string) (Column, bool) {
	for _, c := range s.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// validate checks that the schema is internally consistent.
func (s *Schema) validate() error {
	if s.Table == "" {
		return fmt.Errorf("relstore: schema has empty table name")
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relstore: table %s has an unnamed column", s.Table)
		}
		if c.Kind < KindString || c.Kind > KindTime {
			return fmt.Errorf("relstore: table %s column %s has invalid kind", s.Table, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("relstore: table %s declares column %s twice", s.Table, c.Name)
		}
		seen[c.Name] = true
	}
	kc, ok := s.col(s.Key)
	if !ok {
		return fmt.Errorf("relstore: table %s key column %q not declared", s.Table, s.Key)
	}
	if kc.Kind != KindString || kc.Nullable {
		return fmt.Errorf("relstore: table %s key column %q must be a non-nullable string", s.Table, s.Key)
	}
	for i, idx := range s.Indexes {
		if slices.Contains(s.Indexes[:i], idx) {
			return fmt.Errorf("relstore: table %s declares index %q twice", s.Table, idx)
		}
		for _, col := range strings.Split(idx, ",") {
			if _, ok := s.col(col); !ok {
				return fmt.Errorf("relstore: table %s index %q names undeclared column %q", s.Table, idx, col)
			}
		}
	}
	return nil
}

// checkRow validates a row against the schema and returns its primary key.
func (s *Schema) checkRow(r Row) (string, error) {
	for name, v := range r {
		c, ok := s.col(name)
		if !ok {
			return "", fmt.Errorf("relstore: table %s: row has undeclared column %q", s.Table, name)
		}
		if v.IsNull() {
			if !c.Nullable {
				return "", fmt.Errorf("relstore: table %s: column %s is not nullable", s.Table, name)
			}
			continue
		}
		if v.Kind != c.Kind {
			return "", fmt.Errorf("relstore: table %s: column %s is %s, got %s",
				s.Table, name, c.Kind, v.Kind)
		}
	}
	for _, c := range s.Columns {
		if v, ok := r[c.Name]; (!ok || v.IsNull()) && !c.Nullable {
			return "", fmt.Errorf("relstore: table %s: missing non-nullable column %s", s.Table, c.Name)
		}
	}
	pk := r[s.Key]
	if pk.Kind != KindString || pk.Str == "" {
		return "", fmt.Errorf("relstore: table %s: empty primary key %q", s.Table, s.Key)
	}
	return pk.Str, nil
}
