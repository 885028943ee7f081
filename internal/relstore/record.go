package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"time"
)

// On-disk record format, version 2. One WAL payload is one walOp:
//
//	record  = 0x00 version op
//	op      = kind body
//	string  = uvarint(len) bytes
//
//	CreateTable  string(table) string(key)
//	             uvarint(ncols) { string(name) kind nullable }
//	             uvarint(nidx)  { string(index) }
//	Insert       string(table) uvarint(ncells) { uvarint(column) cell }
//	Update       as Insert
//	Delete       string(table) string(pk)
//	Batch        uvarint(nops) { op }        row ops only, never nested
//	Indexes      string(table) uvarint(nidx) { string(index) }
//	Patch        string(table) string(pk) uvarint(ncells) { uvarint(column) cell }
//
// An Indexes record replaces a table's Schema.Indexes: CreateTable logs
// one when a program declares the table with other indexes than the log
// holds. The columns stay as the CreateTable record gave them.
//
// A Patch is how an update is logged: the row's primary key and the cells
// that differ from the row it replaces, a null cell clearing its column.
// Replay overlays them on a copy of the stored row.
//
//	cell by kind: 0 null     nothing
//	              string     string
//	              int        zig-zag varint
//	              float      8 bytes, little-endian math.Float64bits
//	              bool       1 byte, 0 or 1
//	              time       length byte, then Time.MarshalBinary
//	              16 uuid    16 bytes: a string cell that is a canonical
//	                         lowercase 8-4-4-4-12 UUID
//	              17 hex     uvarint(n) then n >= 16 bytes: a string cell
//	                         of 2n lowercase hex digits
//
// Kinds 16 and 17 are string cells packed as the bytes they print; they
// decode to exactly the text written, so only canonical text is packed.
//
// A cell names its column by position in the table's schema, ascending
// within a row or patch. That is safe because a schema never changes once
// created and its CreateTable record always precedes its rows in the log,
// so the reader holds the very column list the writer numbered from. The
// leading 0x00 tells these records from the ones a daemon before version 1
// wrote: those are gob streams, and a gob stream opens with a non-zero
// message length. Version 1 is version 2 without Patch and the packed
// kinds, and is still read. Times are the bytes gob wrote for them, so zone
// and wall clock replay as they always have.
const (
	recordMagic   = 0x00
	recordVersion = 2

	cellUUID    = 16
	cellHex     = 17
	minHexBytes = 16

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
		if sub.Kind != opInsert && sub.Kind != opUpdate && sub.Kind != opDelete && sub.Kind != opPatch {
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
	case opInsert, opUpdate, opDelete, opPatch:
		t, ok := tables[op.Table]
		if !ok {
			return dst, fmt.Errorf("%w: %s", ErrNoTable, op.Table)
		}
		dst = appendString(dst, op.Table)
		switch op.Kind {
		case opDelete:
			return appendString(dst, op.PK), nil
		case opPatch:
			return appendPatch(appendString(dst, op.PK), &t.schema, op.Patch)
		}
		if len(op.Row) != len(t.schema.Columns) {
			return dst, fmt.Errorf("relstore: table %s: row has %d cells for %d columns", op.Table, len(op.Row), len(t.schema.Columns))
		}
		cells := 0
		for _, v := range op.Row {
			if !v.IsNull() {
				cells++
			}
		}
		dst = binary.AppendUvarint(dst, uint64(cells))
		for i, v := range op.Row {
			if v.IsNull() {
				continue
			}
			dst = binary.AppendUvarint(dst, uint64(i))
			var err error
			if dst, err = appendValue(dst, v); err != nil {
				return dst, fmt.Errorf("relstore: table %s column %s: %w", op.Table, t.schema.Columns[i].Name, err)
			}
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("relstore: unknown wal op %d", op.Kind)
	}
}

// appendPatch appends a patch's cells, which must name distinct columns of
// sc in ascending order.
func appendPatch(dst []byte, sc *Schema, cells []patchCell) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	next := 0
	for _, c := range cells {
		if c.pos < next || c.pos >= len(sc.Columns) {
			return dst, fmt.Errorf("relstore: table %s: patch names column %d out of order or range", sc.Table, c.pos)
		}
		next = c.pos + 1
		dst = binary.AppendUvarint(dst, uint64(c.pos))
		var err error
		if dst, err = appendValue(dst, c.v); err != nil {
			return dst, fmt.Errorf("relstore: table %s column %s: %w", sc.Table, sc.Columns[c.pos].Name, err)
		}
	}
	return dst, nil
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
	if v.Kind == KindString {
		return appendText(dst, v.Str), nil
	}
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case 0:
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.n))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.n)
	case KindBool:
		dst = append(dst, byte(v.n))
	case KindTime:
		at := len(dst)
		dst = append(dst, 0)
		var err error
		if dst, err = appendTime(dst, v.Time()); err != nil {
			return dst, err
		}
		dst[at] = byte(len(dst) - at - 1)
	default:
		return dst, fmt.Errorf("invalid value kind %d", v.Kind)
	}
	return dst, nil
}

// appendText appends a string cell: as a packed uuid or hex cell when s is
// in the canonical form that prints back as exactly s, as a plain string
// otherwise. The shape is checked while packing, in one pass over s.
func appendText(dst []byte, s string) []byte {
	at := len(dst)
	if len(s) == 36 && s[8] == '-' && s[13] == '-' && s[18] == '-' && s[23] == '-' {
		dst = append(dst, cellUUID)
		ok := true
		for _, group := range [...]string{s[:8], s[9:13], s[14:18], s[19:23], s[24:]} {
			if dst, ok = appendUnhex(dst, group); !ok {
				break
			}
		}
		if ok {
			return dst
		}
	} else if len(s) >= 2*minHexBytes && len(s)%2 == 0 {
		dst = binary.AppendUvarint(append(dst, cellHex), uint64(len(s)/2))
		if dst, ok := appendUnhex(dst, s); ok {
			return dst
		}
	}
	return appendString(append(dst[:at], byte(KindString)), s)
}

// appendUnhex appends the bytes an even run of lowercase hex digits
// spells, reporting false at the first other character.
func appendUnhex(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i += 2 {
		hi, lo := unhex[s[i]], unhex[s[i+1]]
		if hi|lo > 0xf {
			return dst, false
		}
		dst = append(dst, hi<<4|lo)
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// unhex maps a lowercase hex digit to its value and every other byte to
// 0xff.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := 0; i < len(hexDigits); i++ {
		t[hexDigits[i]] = byte(i)
	}
	return t
}()

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

// decodeRecord decodes one WAL payload in any format, reporting whether it
// was a legacy gob record. A version 1 or 2 record resolves tables and
// column positions against tables, copies every string out of payload, and
// shares table and column names with the schema; the caller owns the rows.
// A patch decodes as it is: apply resolves it against the stored row.
func decodeRecord(tables map[string]*table, payload []byte) (op walOp, legacy bool, err error) {
	if len(payload) == 0 || payload[0] != recordMagic {
		// Written before version 1. Compact rewrites these, so the branch
		// (and the gob import) can go once no such log is left to upgrade.
		var lop legacyOp
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&lop); err != nil {
			return walOp{}, true, fmt.Errorf("relstore: decode legacy wal record: %w", err)
		}
		op, err := lop.op(tables)
		return op, true, err
	}
	if len(payload) < 3 {
		return walOp{}, false, errRecordTruncated
	}
	if payload[1] != 1 && payload[1] != recordVersion {
		return walOp{}, false, fmt.Errorf("relstore: wal record version %d not supported", payload[1])
	}
	d := recordDecoder{b: payload[2:], tables: tables, version: payload[1]}
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

// legacyOp and legacyValue are walOp and Value as gob wrote them before
// version 1, with rows by column name: gob matches struct fields by name.
type legacyOp struct {
	Kind    opKind
	Schema  *Schema
	Table   string
	Row     map[string]legacyValue
	PK      string
	Batch   []legacyOp
	Indexes []string
}

type legacyValue struct {
	Kind  Kind
	Str   string
	Int   int64
	Float float64
	Bool  bool
	Time  time.Time
}

// op converts a legacy op, its rows positioned by tables' schemas. A cell
// of an unknown kind is kept for apply to refuse, as the cell of any other
// kind its column does not hold is, and so is an insert or update that
// carries no row: gob leaves out an empty map.
func (l *legacyOp) op(tables map[string]*table) (walOp, error) {
	op := walOp{Kind: l.Kind, Schema: l.Schema, Table: l.Table, PK: l.PK, Indexes: l.Indexes}
	if l.Row != nil || l.Kind == opInsert || l.Kind == opUpdate {
		t, ok := tables[l.Table]
		if !ok {
			return walOp{}, fmt.Errorf("%w: %s", ErrNoTable, l.Table)
		}
		row := make(Row, len(l.Row))
		for name, v := range l.Row {
			switch v.Kind {
			case KindString:
				row[name] = String(v.Str)
			case KindInt:
				row[name] = Int(v.Int)
			case KindFloat:
				row[name] = Float(v.Float)
			case KindBool:
				row[name] = Bool(v.Bool)
			case KindTime:
				row[name] = Time(v.Time)
			default:
				row[name] = Value{Kind: v.Kind}
			}
		}
		var err error
		if op.Row, err = t.schema.tuple(row); err != nil {
			return walOp{}, err
		}
	}
	for i := range l.Batch {
		sub, err := l.Batch[i].op(tables)
		if err != nil {
			return walOp{}, err
		}
		op.Batch = append(op.Batch, sub)
	}
	return op, nil
}

// recordDecoder consumes a version 1 or 2 record body. Every read is
// bounds checked and every count is checked against the bytes left to back
// it, so a hostile payload can neither panic it nor make it allocate more
// than the payload's own size justifies.
type recordDecoder struct {
	b       []byte
	tables  map[string]*table
	version byte
}

// text is a string cell read but not yet copied out of the payload: under
// KindString its bytes, under cellUUID or cellHex the bytes it prints.
type text struct {
	kind byte
	b    []byte
}

// len is the length of the string t prints.
func (t text) len() int {
	switch t.kind {
	case cellUUID:
		return 36
	case cellHex:
		return 2 * len(t.b)
	}
	return len(t.b)
}

// write prints t to sb.
func (t text) write(sb *strings.Builder) {
	if t.kind == byte(KindString) {
		sb.Write(t.b)
		return
	}
	for i, c := range t.b {
		if t.kind == cellUUID && (i == 4 || i == 6 || i == 8 || i == 10) {
			sb.WriteByte('-')
		}
		sb.WriteByte(hexDigits[c>>4])
		sb.WriteByte(hexDigits[c&0xf])
	}
}

// stringCell is a string cell read but not yet copied out of the
// payload, and the string its text goes to.
type stringCell struct {
	dst *string
	text
}

// fillStrings copies head and every cell's text into one string, so that
// a row or patch costs one string allocation however many cells it has,
// points each cell's destination at its part, and returns head's part.
func fillStrings(head []byte, cells []stringCell) string {
	size := len(head)
	for _, c := range cells {
		size += c.len()
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.Write(head)
	for _, c := range cells {
		c.write(&sb)
	}
	all := sb.String()
	h, all := all[:len(head)], all[len(head):]
	for _, c := range cells {
		n := c.len()
		*c.dst, all = all[:n], all[n:]
	}
	return h
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
	case opPatch:
		if d.version < 2 {
			return walOp{}, errors.New("relstore: version 1 wal record holds a patch")
		}
		t, err := d.table()
		if err != nil {
			return walOp{}, err
		}
		pk, cells, err := d.patch(&t.schema)
		if err != nil {
			return walOp{}, err
		}
		return walOp{Kind: kind, Table: t.schema.Table, PK: pk, Patch: cells}, nil
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

// row decodes a row's cells straight into their positions in a stored
// row. The row's strings are copied out of the payload into one string, so
// a row costs two allocations however many columns it has.
func (d *recordDecoder) row(sc *Schema) (Tuple, error) {
	n, err := d.cellCount(sc)
	if err != nil {
		return nil, err
	}
	row := make(Tuple, len(sc.Columns))
	var buf [16]stringCell
	strs := buf[:0]
	next := 0 // positions ascend, so no cell can repeat
	for i := 0; i < n; i++ {
		pos, err := d.column(sc, next)
		if err != nil {
			return nil, err
		}
		next = pos + 1
		var t text
		if row[pos], t, err = d.value(); err != nil {
			return nil, err
		}
		if row[pos].Kind == KindString {
			strs = append(strs, stringCell{&row[pos].Str, t})
		}
	}
	fillStrings(nil, strs)
	return row, nil
}

// patch decodes a patch's primary key and cells. Its strings, the key's
// among them, are copied out of the payload into one string.
func (d *recordDecoder) patch(sc *Schema) (string, []patchCell, error) {
	pk, err := d.bytes()
	if err != nil {
		return "", nil, err
	}
	n, err := d.cellCount(sc)
	if err != nil {
		return "", nil, err
	}
	var cells []patchCell
	if n > 0 {
		cells = make([]patchCell, n)
	}
	var buf [16]stringCell
	strs := buf[:0]
	next := 0
	for i := range cells {
		c := &cells[i]
		if c.pos, err = d.column(sc, next); err != nil {
			return "", nil, err
		}
		next = c.pos + 1
		var t text
		if c.v, t, err = d.value(); err != nil {
			return "", nil, err
		}
		if c.v.Kind == KindString {
			strs = append(strs, stringCell{&c.v.Str, t})
		}
	}
	return fillStrings(pk, strs), cells, nil
}

// cellCount reads the cell count of a row or patch of sc, which names each
// column at most once.
func (d *recordDecoder) cellCount(sc *Schema) (int, error) {
	n, err := d.count(2) // column position, kind
	if err != nil {
		return 0, err
	}
	if n > len(sc.Columns) {
		return 0, fmt.Errorf("relstore: table %s: wal row has %d cells for %d columns", sc.Table, n, len(sc.Columns))
	}
	return n, nil
}

// column reads a cell's column position, refusing one below next (out of
// order or repeated) or past sc's columns.
func (d *recordDecoder) column(sc *Schema, next int) (int, error) {
	pos, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if pos < uint64(next) || pos >= uint64(len(sc.Columns)) {
		return 0, fmt.Errorf("relstore: table %s: wal row names column %d out of order or range", sc.Table, pos)
	}
	return int(pos), nil
}

// value decodes one cell. A string cell's bytes come back as a text
// aliasing the payload, for the caller to copy into the value's Str.
func (d *recordDecoder) value() (Value, text, error) {
	k, err := d.byte()
	if err != nil {
		return Value{}, text{}, err
	}
	if k == cellUUID || k == cellHex {
		if d.version < 2 {
			return Value{}, text{}, fmt.Errorf("relstore: version 1 wal record holds cell kind %d", k)
		}
		t := text{kind: k}
		if k == cellUUID {
			t.b, err = d.take(16)
		} else if t.b, err = d.bytes(); err == nil && len(t.b) < minHexBytes {
			err = fmt.Errorf("relstore: wal hex cell of %d bytes, want at least %d", len(t.b), minHexBytes)
		}
		return Value{Kind: KindString}, t, err
	}
	v := Value{Kind: Kind(k)}
	var t text
	switch v.Kind {
	case 0:
	case KindString:
		t.kind = k
		t.b, err = d.bytes()
	case KindInt:
		i, n := binary.Varint(d.b)
		if n <= 0 {
			return Value{}, text{}, errRecordTruncated
		}
		v.n, d.b = uint64(i), d.b[n:]
	case KindFloat:
		var b []byte
		if b, err = d.take(8); err == nil {
			v.n = binary.LittleEndian.Uint64(b)
		}
	case KindBool:
		var b bool
		b, err = d.bool()
		v = Bool(b)
	case KindTime:
		var enc []byte
		if enc, err = d.bytes(); err == nil {
			v, err = decodeTime(enc)
		}
	default:
		return Value{}, text{}, fmt.Errorf("relstore: wal value has invalid kind %d", k)
	}
	return v, t, err
}

// decodeTime reads what Time.MarshalBinary writes, as UnmarshalBinary
// would: a UTC offset marker gives UTC, an offset that is Local's at that
// instant gives Local, any other an unnamed fixed zone. Unlike
// UnmarshalBinary it refuses a nanosecond count of a second or more, which
// would spill into time.Time's internal flag bits.
func decodeTime(enc []byte) (Value, error) {
	if len(enc) == 0 {
		return Value{}, errors.New("relstore: wal time has no data")
	}
	version, want := enc[0], 15
	if version == 2 {
		want = 16
	}
	if (version != 1 && version != 2) || len(enc) != want {
		return Value{}, errors.New("relstore: wal time has an unsupported version or length")
	}
	sec := binary.BigEndian.Uint64(enc[1:])
	nsec := binary.BigEndian.Uint32(enc[9:])
	if nsec >= 1e9 {
		return Value{}, errors.New("relstore: wal time has nanoseconds out of range")
	}
	offset := int(int16(binary.BigEndian.Uint16(enc[13:]))) * 60
	if version == 2 {
		offset += int(enc[15])
	}
	if offset == -60 {
		return timeValue(sec, nsec, time.UTC), nil
	}
	unix := int64(sec) - unixToInternal
	if _, local := time.Unix(unix, 0).Zone(); local == offset {
		return timeValue(sec, nsec, time.Local), nil
	}
	return timeValue(sec, nsec, time.FixedZone("", offset)), nil
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
	return d.take(n)
}

// take reads the next n bytes, aliasing the payload.
func (d *recordDecoder) take(n int) ([]byte, error) {
	if len(d.b) < n {
		return nil, errRecordTruncated
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
