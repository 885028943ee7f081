package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"time"
)

// On-disk record format, version 1. One WAL payload is one walOp:
//
//	record  = 0x00 version op
//	op      = kind body
//	string  = uvarint(len) bytes
//
//	CreateTable  string(table) string(key)
//	             uvarint(ncols) { string(name) kind nullable }
//	             uvarint(nidx)  { string(index) }
//	Insert       string(table) uvarint(ncells) { uvarint(column) kind value }
//	Update       as Insert
//	Delete       string(table) string(pk)
//	Batch        uvarint(nops) { op }        row ops only, never nested
//	Indexes      string(table) uvarint(nidx) { string(index) }
//
// An Indexes record replaces a table's Schema.Indexes: CreateTable logs
// one when a program declares the table with other indexes than the log
// holds. The columns stay as the CreateTable record gave them.
//
//	value by kind: 0 null     nothing
//	               string     string
//	               int        zig-zag varint
//	               float      8 bytes, little-endian math.Float64bits
//	               bool       1 byte, 0 or 1
//	               time       length byte, then Time.MarshalBinary
//
// A cell names its column by position in the table's schema, ascending
// within a row. That is safe because a schema never changes once created
// and its CreateTable record always precedes its rows in the log, so the
// reader holds the very column list the writer numbered from. The leading
// 0x00 tells these records from the ones a daemon before this format
// wrote: those are gob streams, and a gob stream opens with a non-zero
// message length. Times are the bytes gob wrote for them, so zone and wall
// clock replay as they always have.
const (
	recordMagic   = 0x00
	recordVersion = 1

	// unixToInternal converts Unix seconds to the seconds since year 1
	// that Time.MarshalBinary writes.
	unixToInternal = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 86400
)

// appendRecord appends op's record to dst. It allocates only when dst must
// grow. tables must hold every table a row op names, as it will when the
// record is read back.
func appendRecord(dst []byte, tables map[string]*table, op walOp) ([]byte, error) {
	dst = append(dst, recordMagic, recordVersion)
	if op.Kind != opBatch {
		return appendOp(dst, tables, op)
	}
	dst = append(dst, byte(opBatch))
	dst = binary.AppendUvarint(dst, uint64(len(op.Batch)))
	for _, sub := range op.Batch {
		if sub.Kind != opInsert && sub.Kind != opUpdate && sub.Kind != opDelete {
			return dst, fmt.Errorf("relstore: batch cannot hold wal op %d", sub.Kind)
		}
		var err error
		if dst, err = appendOp(dst, tables, sub); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendOp appends one non-batch op: its kind byte and body.
func appendOp(dst []byte, tables map[string]*table, op walOp) ([]byte, error) {
	dst = append(dst, byte(op.Kind))
	switch op.Kind {
	case opCreateTable:
		sc := op.Schema
		if sc == nil {
			return dst, errors.New("relstore: wal CreateTable carries no schema")
		}
		if err := sc.validate(); err != nil { // as the decoder will
			return dst, err
		}
		dst = appendString(dst, sc.Table)
		dst = appendString(dst, sc.Key)
		dst = binary.AppendUvarint(dst, uint64(len(sc.Columns)))
		for _, c := range sc.Columns {
			dst = appendString(dst, c.Name)
			dst = append(dst, byte(c.Kind), boolByte(c.Nullable))
		}
		return appendStrings(dst, sc.Indexes), nil
	case opIndexes:
		t, ok := tables[op.Table]
		if !ok {
			return dst, fmt.Errorf("%w: %s", ErrNoTable, op.Table)
		}
		sc := t.schema
		sc.Indexes = op.Indexes
		if err := sc.validate(); err != nil { // as the decoder will
			return dst, err
		}
		return appendStrings(appendString(dst, op.Table), op.Indexes), nil
	case opInsert, opUpdate, opDelete:
		t, ok := tables[op.Table]
		if !ok {
			return dst, fmt.Errorf("%w: %s", ErrNoTable, op.Table)
		}
		dst = appendString(dst, op.Table)
		if op.Kind == opDelete {
			return appendString(dst, op.PK), nil
		}
		dst = binary.AppendUvarint(dst, uint64(len(op.Row)))
		cells := 0
		for i, c := range t.schema.Columns {
			v, ok := op.Row[c.Name]
			if !ok {
				continue
			}
			cells++
			dst = binary.AppendUvarint(dst, uint64(i))
			var err error
			if dst, err = appendValue(dst, v); err != nil {
				return dst, fmt.Errorf("relstore: table %s column %s: %w", op.Table, c.Name, err)
			}
		}
		if cells != len(op.Row) {
			return dst, fmt.Errorf("relstore: table %s: row has an undeclared column", op.Table)
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("relstore: unknown wal op %d", op.Kind)
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendValue(dst []byte, v Value) ([]byte, error) {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case 0:
	case KindString:
		dst = appendString(dst, v.Str)
	case KindInt:
		dst = binary.AppendVarint(dst, v.Int)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
	case KindBool:
		dst = append(dst, boolByte(v.Bool))
	case KindTime:
		at := len(dst)
		dst = append(dst, 0)
		var err error
		if dst, err = appendTime(dst, v.Time); err != nil {
			return dst, err
		}
		dst[at] = byte(len(dst) - at - 1)
	default:
		return dst, fmt.Errorf("invalid value kind %d", v.Kind)
	}
	return dst, nil
}

// appendTime appends exactly what t.MarshalBinary returns, without its
// allocation (Time.AppendBinary would do, but is newer than go.mod's go
// line): version, seconds since year 1, nanoseconds, zone offset in minutes
// with -1 for UTC, and under version 2 the offset's odd seconds.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	version, offsetMin, offsetSec := byte(1), -1, 0
	if t.Location() != time.UTC {
		_, offset := t.Zone()
		if offset%60 != 0 {
			version, offsetSec = 2, offset%60
		}
		offsetMin = offset / 60
		if offsetMin < -32768 || offsetMin == -1 || offsetMin > 32767 {
			return dst, errors.New("time has an unencodable zone offset")
		}
	}
	dst = append(dst, version)
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.Unix()+unixToInternal))
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.Nanosecond()))
	dst = binary.BigEndian.AppendUint16(dst, uint16(offsetMin))
	if version == 2 {
		dst = append(dst, byte(offsetSec))
	}
	return dst, nil
}

var errRecordTruncated = errors.New("relstore: wal record truncated")

// decodeRecord decodes one WAL payload in either format, reporting whether
// it was a legacy gob record. A version 1 record resolves tables and
// column positions against tables, copies every string out of payload, and
// shares table and column names with the schema; the caller owns the rows.
func decodeRecord(tables map[string]*table, payload []byte) (op walOp, legacy bool, err error) {
	if len(payload) == 0 || payload[0] != recordMagic {
		// Written before version 1. Compact rewrites these, so the branch
		// (and the gob import) can go once no such log is left to upgrade.
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&op); err != nil {
			return walOp{}, true, fmt.Errorf("relstore: decode legacy wal record: %w", err)
		}
		return op, true, nil
	}
	if len(payload) < 3 {
		return walOp{}, false, errRecordTruncated
	}
	if payload[1] != recordVersion {
		return walOp{}, false, fmt.Errorf("relstore: wal record version %d not supported", payload[1])
	}
	d := recordDecoder{b: payload[2:], tables: tables}
	if opKind(d.b[0]) == opBatch {
		d.b = d.b[1:]
		op, err = d.batch()
	} else {
		op, err = d.op()
	}
	if err == nil && len(d.b) != 0 {
		err = fmt.Errorf("relstore: wal record has %d trailing bytes", len(d.b))
	}
	if err != nil {
		return walOp{}, false, err
	}
	return op, false, nil
}

// recordDecoder consumes a version 1 record body. Every read is bounds
// checked and every count is checked against the bytes left to back it, so
// a hostile payload can neither panic it nor make it allocate more than
// the payload's own size justifies.
type recordDecoder struct {
	b      []byte
	tables map[string]*table
}

func (d *recordDecoder) batch() (walOp, error) {
	n, err := d.count(3) // kind, table length, pk length: the shortest op
	if err != nil {
		return walOp{}, err
	}
	ops := make([]walOp, n)
	for i := range ops {
		if ops[i], err = d.op(); err != nil {
			return walOp{}, err
		}
		if ops[i].Kind == opCreateTable || ops[i].Kind == opIndexes {
			return walOp{}, errors.New("relstore: wal batch holds a schema op")
		}
	}
	return walOp{Kind: opBatch, Batch: ops}, nil
}

// op decodes one non-batch op, so a batch inside a batch is refused here.
func (d *recordDecoder) op() (walOp, error) {
	k, err := d.byte()
	if err != nil {
		return walOp{}, err
	}
	switch kind := opKind(k); kind {
	case opCreateTable:
		sc, err := d.schema()
		if err != nil {
			return walOp{}, err
		}
		return walOp{Kind: kind, Schema: sc}, nil
	case opInsert, opUpdate:
		t, err := d.table()
		if err != nil {
			return walOp{}, err
		}
		row, err := d.row(&t.schema)
		if err != nil {
			return walOp{}, err
		}
		return walOp{Kind: kind, Table: t.schema.Table, Row: row}, nil
	case opDelete:
		t, err := d.table()
		if err != nil {
			return walOp{}, err
		}
		pk, err := d.string()
		if err != nil {
			return walOp{}, err
		}
		return walOp{Kind: kind, Table: t.schema.Table, PK: pk}, nil
	case opIndexes:
		t, err := d.table()
		if err != nil {
			return walOp{}, err
		}
		sc := t.schema
		if sc.Indexes, err = d.strings(); err != nil {
			return walOp{}, err
		}
		if err := sc.validate(); err != nil {
			return walOp{}, err
		}
		return walOp{Kind: kind, Table: sc.Table, Indexes: sc.Indexes}, nil
	default:
		return walOp{}, fmt.Errorf("relstore: unknown or nested wal op %d", k)
	}
}

func (d *recordDecoder) schema() (*Schema, error) {
	var (
		sc  Schema
		err error
	)
	if sc.Table, err = d.string(); err != nil {
		return nil, err
	}
	if sc.Key, err = d.string(); err != nil {
		return nil, err
	}
	n, err := d.count(3) // name length, kind, nullable
	if err != nil {
		return nil, err
	}
	sc.Columns = make([]Column, n)
	for i := range sc.Columns {
		c := &sc.Columns[i]
		if c.Name, err = d.string(); err != nil {
			return nil, err
		}
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		c.Kind = Kind(kind)
		if c.Nullable, err = d.bool(); err != nil {
			return nil, err
		}
	}
	if sc.Indexes, err = d.strings(); err != nil {
		return nil, err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// table reads a table name and resolves it without copying the name.
func (d *recordDecoder) table() (*table, error) {
	name, err := d.bytes()
	if err != nil {
		return nil, err
	}
	t, ok := d.tables[string(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

func (d *recordDecoder) row(sc *Schema) (Row, error) {
	n, err := d.count(2) // column position, kind
	if err != nil {
		return nil, err
	}
	if n > len(sc.Columns) {
		return nil, fmt.Errorf("relstore: table %s: wal row has %d cells for %d columns", sc.Table, n, len(sc.Columns))
	}
	row := make(Row, n)
	next := uint64(0) // positions ascend, so no cell can repeat
	for i := 0; i < n; i++ {
		pos, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if pos < next || pos >= uint64(len(sc.Columns)) {
			return nil, fmt.Errorf("relstore: table %s: wal row names column %d out of order or range", sc.Table, pos)
		}
		next = pos + 1
		if row[sc.Columns[pos].Name], err = d.value(); err != nil {
			return nil, err
		}
	}
	return row, nil
}

func (d *recordDecoder) value() (Value, error) {
	k, err := d.byte()
	if err != nil {
		return Value{}, err
	}
	v := Value{Kind: Kind(k)}
	switch v.Kind {
	case 0:
	case KindString:
		v.Str, err = d.string()
	case KindInt:
		var n int
		v.Int, n = binary.Varint(d.b)
		if n <= 0 {
			return Value{}, errRecordTruncated
		}
		d.b = d.b[n:]
	case KindFloat:
		if len(d.b) < 8 {
			return Value{}, errRecordTruncated
		}
		v.Float = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		d.b = d.b[8:]
	case KindBool:
		v.Bool, err = d.bool()
	case KindTime:
		var enc []byte
		if enc, err = d.bytes(); err == nil {
			err = v.Time.UnmarshalBinary(enc)
		}
		// UnmarshalBinary has checked the length but takes any nanosecond
		// count, and one past a second spills into Time's internal flag bits.
		if err == nil && binary.BigEndian.Uint32(enc[9:]) >= 1e9 {
			err = errors.New("relstore: wal time has nanoseconds out of range")
		}
	default:
		return Value{}, fmt.Errorf("relstore: wal value has invalid kind %d", k)
	}
	return v, err
}

func (d *recordDecoder) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, errRecordTruncated
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c, nil
}

func (d *recordDecoder) bool() (bool, error) {
	c, err := d.byte()
	if err == nil && c > 1 {
		err = fmt.Errorf("relstore: wal record has bool byte %d", c)
	}
	return c == 1, err
}

func (d *recordDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errRecordTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

// count reads an element count and refuses one the remaining bytes cannot
// hold at min bytes per element.
func (d *recordDecoder) count(min int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.b)/min) {
		return 0, errRecordTruncated
	}
	return int(v), nil
}

// bytes reads a length-prefixed run, aliasing the payload.
func (d *recordDecoder) bytes() ([]byte, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b, nil
}

func (d *recordDecoder) string() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// strings reads a counted list of strings, nil when empty.
func (d *recordDecoder) strings() ([]string, error) {
	n, err := d.count(1)
	if err != nil || n == 0 {
		return nil, err
	}
	ss := make([]string, n)
	for i := range ss {
		if ss[i], err = d.string(); err != nil {
			return nil, err
		}
	}
	return ss, nil
}
