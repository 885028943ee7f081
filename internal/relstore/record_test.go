package relstore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// gobRecord is the encoder the store used before the version 1 format: a
// fresh gob stream per record, of the op with its rows by column name and
// its values as their fields were then. Tests keep it as the reference the
// new format must agree with and as the writer of legacy logs.
func gobRecord(t testing.TB, op walOp) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacyOf(op)); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

// legacyOf is op as a daemon before version 1 held it.
func legacyOf(op walOp) legacyOp {
	l := legacyOp{Kind: op.Kind, Schema: op.Schema, Table: op.Table, PK: op.PK, Indexes: op.Indexes}
	if op.Row != nil {
		l.Row = map[string]legacyValue{}
		for name, v := range byName(testSchemas[op.Table].Columns, op.Row) {
			l.Row[name] = legacyValue{Kind: v.Kind, Str: v.Str, Int: v.Int(), Float: v.Float(), Bool: v.Bool(), Time: v.Time()}
		}
	}
	for _, sub := range op.Batch {
		l.Batch = append(l.Batch, legacyOf(sub))
	}
	return l
}

// testSchemas are the tables the format tests' ops name.
var testSchemas = map[string]Schema{"instances": modelsSchema(), "wide": wideSchema()}

// tupleOf is r as the store keeps a row of the named test table.
func tupleOf(table string, r Row) Tuple {
	sc := testSchemas[table]
	t, err := sc.tuple(r)
	if err != nil {
		panic(err)
	}
	return t
}

// wideSchema has a nullable column of every kind, so any cell can be null,
// missing or at an edge of its type — NaN and the infinities included — and
// an index on every column but the bool, so dump's posting count checks
// that the index order stays total over those edges.
func wideSchema() Schema {
	return Schema{
		Table: "wide",
		Columns: []Column{
			{Name: "id", Kind: KindString},
			{Name: "s", Kind: KindString, Nullable: true},
			{Name: "i", Kind: KindInt, Nullable: true},
			{Name: "f", Kind: KindFloat, Nullable: true},
			{Name: "b", Kind: KindBool, Nullable: true},
			{Name: "t", Kind: KindTime, Nullable: true},
		},
		Key:     "id",
		Indexes: []string{"s", "i", "f", "t"},
	}
}

// recordStore is the schema context the format tests encode and decode
// against: the two tables the other tests use.
func recordStore(t testing.TB) *Store {
	t.Helper()
	s := NewMemory()
	for _, sc := range []Schema{modelsSchema(), wideSchema()} {
		if err := s.CreateTable(sc); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

var (
	edgeStrings = []string{"", "a", "sf", "naïve ☃", "nul\x00inside", strings.Repeat("x", 300), "\xff\xfe not utf-8",
		// Packed as a uuid or hex cell, and the near misses that must not be.
		testUUID, strings.ToUpper(testUUID), "{" + testUUID + "}", testUUID[:35] + "g",
		testHex, testHex[:32], testHex[:30], testHex[:33], strings.ToUpper(testHex)}
	edgeInts   = []int64{0, 1, -1, 63, 64, -64, -65, math.MaxInt64, math.MinInt64}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1.5, math.NaN(), math.Float64frombits(0x7ff8000000000001),
		math.Float64frombits(0xfff0000000000123), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	edgeTimes = []time.Time{
		{},
		t0,
		time.Now(), // Local, with a monotonic reading the encoding drops
		time.Unix(0, 0),
		time.Unix(1<<40, 999999999).UTC(),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2019, 6, 1, 12, 0, 0, 5, time.FixedZone("IST", 5*3600+30*60)),
		time.Date(2019, 6, 1, 12, 0, 0, 0, time.FixedZone("PST", -8*3600)),
		time.Date(1890, 1, 1, 0, 0, 0, 0, time.FixedZone("LMT", 3600+17)),    // sub-minute offset: MarshalBinary version 2
		time.Date(1890, 1, 1, 0, 0, 0, 0, time.FixedZone("LMT", -2*3600-30)), // and a negative one
		time.Date(2019, 6, 1, 0, 0, 0, 0, time.FixedZone("zero", 0)),         // offset 0 but not UTC
	}
)

const (
	testUUID = "0f8fad5b-d9cb-469f-a165-70867728950e"
	testHex  = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)

func pick[T any](r *rand.Rand, pool []T) T { return pool[r.Intn(len(pool))] }

// randomWideRow draws a valid row of the wide table: the key always, every
// other column absent, null or an edge value.
func randomWideRow(r *rand.Rand) Row {
	row := Row{"id": String("k" + pick(r, edgeStrings))}
	cell := func(name string, v Value) {
		switch r.Intn(4) {
		case 0: // absent
		case 1:
			row[name] = Value{}
		default:
			row[name] = v
		}
	}
	cell("s", String(pick(r, edgeStrings)))
	cell("i", Int(pick(r, edgeInts)))
	cell("f", Float(pick(r, edgeFloats)))
	cell("b", Bool(r.Intn(2) == 0))
	cell("t", Time(pick(r, edgeTimes)))
	return row
}

func randomRowOp(r *rand.Rand) walOp {
	switch r.Intn(4) {
	case 0:
		return walOp{Kind: opDelete, Table: pick(r, []string{"wide", "instances"}), PK: pick(r, edgeStrings)}
	case 1:
		return walOp{Kind: opUpdate, Table: "wide", Row: tupleOf("wide", randomWideRow(r))}
	case 2:
		return walOp{Kind: opInsert, Table: "instances", Row: tupleOf("instances", row("i"+pick(r, edgeStrings), "b", pick(r, edgeStrings), pick(r, edgeTimes), pick(r, edgeFloats)))}
	default:
		return walOp{Kind: opInsert, Table: "wide", Row: tupleOf("wide", randomWideRow(r))}
	}
}

// randomIndexes draws an index list for the wide table: single-column and
// composite indexes, none at all sometimes.
func randomIndexes(r *rand.Rand) []string {
	var out []string
	for _, name := range []string{"s", "i,f", "t", "s,t,i", "f", "b,s"} {
		if r.Intn(2) == 0 {
			out = append(out, name)
		}
	}
	return out
}

func randomOp(r *rand.Rand) walOp {
	switch r.Intn(9) {
	case 0:
		sc := wideSchema()
		if r.Intn(2) == 0 {
			sc = modelsSchema()
			sc.Indexes = nil
		}
		return walOp{Kind: opCreateTable, Schema: &sc}
	case 8:
		return walOp{Kind: opIndexes, Table: "wide", Indexes: randomIndexes(r)}
	case 1, 2:
		ops := make([]walOp, r.Intn(5))
		for i := range ops {
			ops[i] = randomRowOp(r)
		}
		return walOp{Kind: opBatch, Batch: ops}
	default:
		return randomRowOp(r)
	}
}

// sameValue is equality on what the log must preserve: floats by bit
// pattern (NaN payloads, -0), times by instant, zone and offset.
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.Str == b.Str && a.Int() == b.Int() && a.Bool() == b.Bool() &&
		math.Float64bits(a.Float()) == math.Float64bits(b.Float()) && reflect.DeepEqual(a.Time(), b.Time())
}

// sameRow compares two rows by column name, a column one lacks being null
// in it, as it is in the store.
func sameRow(a, b Row) bool {
	for k, v := range a {
		if !sameValue(v, b[k]) {
			return false
		}
	}
	for k, v := range b {
		if !sameValue(a[k], v) {
			return false
		}
	}
	return true
}

func sameTuple(a, b Tuple) bool { return slices.EqualFunc(a, b, sameValue) }

func samePatch(a, b []patchCell) bool {
	return slices.EqualFunc(a, b, func(x, y patchCell) bool { return x.pos == y.pos && sameValue(x.v, y.v) })
}

func sameOp(a, b walOp) bool {
	if a.Kind != b.Kind || a.Table != b.Table || a.PK != b.PK || !sameTuple(a.Row, b.Row) || !samePatch(a.Patch, b.Patch) ||
		(a.Schema == nil) != (b.Schema == nil) || len(a.Batch) != len(b.Batch) || !slices.Equal(a.Indexes, b.Indexes) {
		return false
	}
	if a.Schema != nil && !schemaEqual(*a.Schema, *b.Schema) {
		return false
	}
	for i := range a.Batch {
		if !sameOp(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	return true
}

// drifts reports whether op holds a time whose zone Time.MarshalBinary does
// not give back: it writes the odd seconds of a sub-minute offset as a
// signed byte and UnmarshalBinary reads them unsigned, so a negative such
// offset comes back shifted (the instant is kept). Gob records had the same
// property and version 1 copies the bytes; only the checks that feed a
// decoded op back into the encoder have to step around it.
func drifts(op walOp) bool {
	for _, v := range op.Row {
		if _, off := v.Time().Zone(); v.Kind == KindTime && off < 0 && off%60 != 0 {
			return true
		}
	}
	for _, c := range op.Patch {
		if drifts(walOp{Row: Tuple{c.v}}) {
			return true
		}
	}
	for _, sub := range op.Batch {
		if drifts(sub) {
			return true
		}
	}
	return false
}

// keepNegZero puts back the one thing gob lost and version 1 keeps: gob omits
// a field that compares equal to zero, so a -0 float came back +0. Wherever
// sent holds -0, so must the gob round trip it is compared through.
func keepNegZero(back, sent walOp) {
	for name, v := range sent.Row {
		if v.Kind == KindFloat && v.Float() == 0 {
			back.Row[name] = v
		}
	}
	for i := range sent.Batch {
		keepNegZero(back.Batch[i], sent.Batch[i])
	}
}

// TestRecordAgreesWithGob is the differential check: for any op the store
// can log, decoding its version 1 record yields exactly what the gob round
// trip of the same op yields (but for the sign of a zero float, which gob
// dropped), so swapping the format changed nothing a replay can see.
func TestRecordAgreesWithGob(t *testing.T) {
	s := recordStore(t)
	r := rand.New(rand.NewSource(22))
	kinds := make(map[opKind]int)
	for i := 0; i < 3000; i++ {
		op := randomOp(r)
		kinds[op.Kind]++
		rec, err := appendRecord(nil, s.tables, op)
		if err != nil {
			t.Fatalf("op %d: encode %+v: %v", i, op, err)
		}
		got, legacy, err := decodeRecord(s.tables, rec)
		if err != nil || legacy {
			t.Fatalf("op %d: decode: legacy=%v err=%v", i, legacy, err)
		}
		want, legacy, err := decodeRecord(s.tables, gobRecord(t, op))
		if err != nil || !legacy {
			t.Fatalf("op %d: gob decode: legacy=%v err=%v", i, legacy, err)
		}
		keepNegZero(want, op)
		if !sameOp(got, want) {
			t.Fatalf("op %d: version 1 round trip\n %+v\ngob round trip\n %+v", i, got, want)
		}
		if drifts(got) {
			continue
		}
		again, err := appendRecord(nil, s.tables, got)
		if err != nil || !bytes.Equal(again, rec) {
			t.Fatalf("op %d: re-encoding the decoded op gave different bytes (err %v)", i, err)
		}
	}
	for k := opCreateTable; k <= opIndexes; k++ {
		if kinds[k] == 0 {
			t.Fatalf("generator never produced op kind %d", k)
		}
	}
}

// TestAppendTimeIsMarshalBinary pins the hand-rolled time encoding to the
// standard library's, refusals included.
func TestAppendTimeIsMarshalBinary(t *testing.T) {
	times := append([]time.Time{
		time.Date(2019, 6, 1, 0, 0, 0, 0, time.FixedZone("", -60)), // offset -1 minute collides with the UTC marker
		time.Date(2019, 6, 1, 0, 0, 0, 0, time.FixedZone("", -90)),
		time.Date(2019, 6, 1, 0, 0, 0, 0, time.Local),
	}, edgeTimes...)
	for _, tm := range times {
		want, wantErr := tm.MarshalBinary()
		got, gotErr := appendTime(nil, tm)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("%v: MarshalBinary err %v, appendTime err %v", tm, wantErr, gotErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("%v: appendTime %x, MarshalBinary %x", tm, got, want)
		}
	}
}

// TestEncodeRecordAllocatesNothing gates the write path's encode, which
// runs under the store's lock: once the scratch buffer has grown to the
// records in use, a record of any kind costs no allocation.
func TestEncodeRecordAllocatesNothing(t *testing.T) {
	s := recordStore(t)
	full := tupleOf("wide", Row{"id": String("k"), "s": String("sf"), "i": Int(-7), "f": Float(0.25), "b": Bool(true),
		"t": Time(time.Date(2019, 6, 1, 12, 0, 0, 5, time.FixedZone("IST", 5*3600+30*60)))})
	ids := tupleOf("instances", row(testUUID, testHex, strings.ToUpper(testUUID), t0, 0.1))
	patch := []patchCell{{1, Value{}}, {2, String(testUUID)}, {3, Time(t0)}}
	ops := []walOp{
		{Kind: opInsert, Table: "wide", Row: full},
		{Kind: opUpdate, Table: "instances", Row: tupleOf("instances", row("i1", "b", "sf", t0, 0.1))},
		{Kind: opInsert, Table: "instances", Row: ids},
		{Kind: opPatch, Table: "instances", PK: testUUID, Patch: patch},
		{Kind: opDelete, Table: "wide", PK: "k"},
		{Kind: opBatch, Batch: []walOp{{Kind: opInsert, Table: "wide", Row: full}, {Kind: opPatch, Table: "instances", PK: "i1", Patch: patch},
			{Kind: opDelete, Table: "instances", PK: "i1"}}},
	}
	for _, op := range ops {
		if _, err := s.encodeRecord(op); err != nil { // warm the buffer
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := s.encodeRecord(op); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("encoding op kind %d allocates %v times per record, want 0", op.Kind, n)
		}
	}
}

// TestEncodeRecordDropsOutsizedBuffer: one huge record must not pin a huge
// scratch buffer on the store.
func TestEncodeRecordDropsOutsizedBuffer(t *testing.T) {
	s := recordStore(t)
	big := tupleOf("wide", Row{"id": String("k"), "s": String(strings.Repeat("x", 2*maxKeptRecordBuf))})
	rec, err := s.encodeRecord(walOp{Kind: opInsert, Table: "wide", Row: big})
	if err != nil || len(rec) < 2*maxKeptRecordBuf {
		t.Fatalf("encoded %d bytes, err %v", len(rec), err)
	}
	if cap(s.recBuf) > maxKeptRecordBuf {
		t.Fatalf("store kept a %d-byte scratch buffer", cap(s.recBuf))
	}
}

func TestEncodeRecordRefusals(t *testing.T) {
	s := recordStore(t)
	sc := wideSchema()
	for name, op := range map[string]walOp{
		"unknown table":       {Kind: opInsert, Table: "nope", Row: Tuple{String("k")}},
		"delete, no table":    {Kind: opDelete, Table: "nope", PK: "k"},
		"a cell too many":     {Kind: opInsert, Table: "wide", Row: append(tupleOf("wide", Row{"id": String("k")}), Int(1))},
		"invalid value kind":  {Kind: opInsert, Table: "wide", Row: tupleOf("wide", Row{"id": {Kind: 9}})},
		"unknown op":          {Kind: 42},
		"create without body": {Kind: opCreateTable},
		"nested batch":        {Kind: opBatch, Batch: []walOp{{Kind: opBatch}}},
		"create in batch":     {Kind: opBatch, Batch: []walOp{{Kind: opCreateTable, Schema: &sc}}},
		"indexes in batch":    {Kind: opBatch, Batch: []walOp{{Kind: opIndexes, Table: "wide"}}},
		"indexes, no table":   {Kind: opIndexes, Table: "nope"},
		"index on a ghost":    {Kind: opIndexes, Table: "wide", Indexes: []string{"s,ghost"}},
		"index twice":         {Kind: opIndexes, Table: "wide", Indexes: []string{"s", "s"}},
		"unencodable zone":    {Kind: opInsert, Table: "wide", Row: tupleOf("wide", Row{"id": String("k"), "t": Time(t0.In(time.FixedZone("", -60)))})},
	} {
		if _, err := appendRecord(nil, s.tables, op); err == nil {
			t.Errorf("%s: encoded without error", name)
		}
	}
}

// TestDecodeRecordRefusals walks the decoder's checks with hand-built
// payloads: each must come back as an error, never a panic or an
// allocation sized by a count the payload cannot back.
func TestDecodeRecordRefusals(t *testing.T) {
	s := recordStore(t)
	good, err := appendRecord(nil, s.tables, walOp{Kind: opInsert, Table: "wide", Row: tupleOf("wide", Row{"id": String("k"), "i": Int(3)})})
	if err != nil {
		t.Fatal(err)
	}
	hdr := []byte{recordMagic, recordVersion}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	wide := []byte{4, 'w', 'i', 'd', 'e'}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // uvarint 2^32-1
	for name, p := range map[string][]byte{
		"magic only":                {recordMagic},
		"no op":                     hdr,
		"future version":            {recordMagic, 3, byte(opDelete), 0, 0},
		"unknown op":                cat(hdr, []byte{9}),
		"trailing byte":             cat(good, []byte{0}),
		"unknown table":             cat(hdr, []byte{byte(opInsert), 1, 'x', 0}),
		"cell count past payload":   cat(hdr, []byte{byte(opInsert)}, wide, huge),
		"more cells than columns":   cat(hdr, []byte{byte(opInsert)}, wide, []byte{7}, bytes.Repeat([]byte{0, 0}, 7)),
		"column out of range":       cat(hdr, []byte{byte(opInsert)}, wide, []byte{1, 6, 0}),
		"column repeated":           cat(hdr, []byte{byte(opInsert)}, wide, []byte{2, 1, 0, 1, 0}),
		"columns descending":        cat(hdr, []byte{byte(opInsert)}, wide, []byte{2, 2, 0, 1, 0}),
		"invalid value kind":        cat(hdr, []byte{byte(opInsert)}, wide, []byte{1, 0, 9}),
		"string past payload":       cat(hdr, []byte{byte(opInsert)}, wide, []byte{1, 0, byte(KindString)}, huge),
		"short float":               cat(hdr, []byte{byte(opInsert)}, wide, []byte{1, 3, byte(KindFloat), 1, 2, 3}),
		"bool byte 2":               cat(hdr, []byte{byte(opInsert)}, wide, []byte{1, 4, byte(KindBool), 2}),
		"unterminated varint":       cat(hdr, []byte{byte(opInsert)}, wide, []byte{1, 2, byte(KindInt), 0x80}),
		"time of wrong length":      cat(hdr, []byte{byte(opInsert)}, wide, []byte{1, 5, byte(KindTime), 3, 1, 0, 0}),
		"time with 2e9 nanoseconds": cat(hdr, []byte{byte(opInsert)}, wide, []byte{1, 5, byte(KindTime), 15, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0x77, 0x35, 0x94, 0x00, 0xff, 0xff}),
		"batch count past payload":  cat(hdr, []byte{byte(opBatch)}, huge),
		"nested batch":              cat(hdr, []byte{byte(opBatch), 1, byte(opBatch), 0, 0}),
		"create in batch":           cat(hdr, []byte{byte(opBatch), 1}, mustRecord(t, s, walOp{Kind: opCreateTable, Schema: &Schema{Table: "t", Key: "id", Columns: []Column{{Name: "id", Kind: KindString}}}})[2:]),
		"indexes in batch":          cat(hdr, []byte{byte(opBatch), 1, byte(opIndexes)}, wide, []byte{0}),
		"indexes, no table":         cat(hdr, []byte{byte(opIndexes), 1, 'x', 0}),
		"index count past payload":  cat(hdr, []byte{byte(opIndexes)}, wide, huge),
		"index on a ghost column":   cat(hdr, []byte{byte(opIndexes)}, wide, []byte{1, 3, 's', ',', 'x'}),
		"column count past bytes":   cat(hdr, []byte{byte(opCreateTable), 1, 't', 2, 'i', 'd'}, huge),
		"schema without its key":    cat(hdr, []byte{byte(opCreateTable), 1, 't', 2, 'i', 'd', 1, 1, 'x', byte(KindString), 0, 0}),
		"not gob either":            {0x03, 0x01, 0x02},
	} {
		if _, _, err := decodeRecord(s.tables, p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, _, err := decodeRecord(s.tables, cat(hdr, []byte{byte(opInsert), 1, 'x', 0})); !errors.Is(err, ErrNoTable) {
		t.Errorf("row for an unknown table: %v, want ErrNoTable", err)
	}
	// Gob can deliver what version 1 cannot express: a CreateTable without
	// its schema decodes, and must be refused when applied, not dereferenced.
	op, legacy, err := decodeRecord(s.tables, gobRecord(t, walOp{Kind: opCreateTable}))
	if err != nil || !legacy {
		t.Fatalf("legacy CreateTable without a schema: legacy=%v err=%v", legacy, err)
	}
	if err := s.apply(op); err == nil {
		t.Error("applied a CreateTable without a schema")
	}
	// Nor does gob write an empty row map: an insert or update without a
	// row must be refused when applied, not indexed into.
	for _, kind := range []opKind{opInsert, opUpdate} {
		op, _, err := decodeRecord(s.tables, gobRecord(t, walOp{Kind: kind, Table: "wide"}))
		if err != nil {
			t.Fatalf("legacy op %d without a row: %v", kind, err)
		}
		if err := s.apply(op); err == nil {
			t.Errorf("applied a legacy op %d without a row", kind)
		}
	}
}

func mustRecord(t testing.TB, s *Store, op walOp) []byte {
	t.Helper()
	rec, err := appendRecord(nil, s.tables, op)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// FuzzDecodeRecord feeds the record decoder hostile payloads. It must not
// panic, nor must applying what it decodes; a count it accepts is backed by
// payload bytes; and whatever decodes as a version 1 or 2 record
// re-encodes, byte for byte the same on the second pass, and decodes again
// to an equal op. A payload that decodes as legacy gob may describe ops
// the new format refuses, but never ones it encodes differently from what
// it reads back.
func FuzzDecodeRecord(f *testing.F) {
	s := recordStore(f)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		f.Add(mustRecord(f, s, randomOp(r)))
	}
	f.Add(gobRecord(f, randomRowOp(r)))
	for i := 0; i < 8; i++ {
		f.Add(mustRecord(f, s, randomPatchOp(r)))
	}
	f.Add(mustRecord(f, s, walOp{Kind: opBatch, Batch: []walOp{ // a row inserted and patched in one batch
		{Kind: opInsert, Table: "wide", Row: tupleOf("wide", Row{"id": String("k2")})},
		{Kind: opPatch, Table: "wide", PK: "k2", Patch: []patchCell{{1, String(testUUID)}}},
	}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, legacy, err := decodeRecord(s.tables, payload)
		if err != nil {
			return
		}
		// Replay may refuse what decodes (a patch of a missing row, one
		// that changes the key, a null in a non-nullable column) but must
		// not panic on it.
		_ = patchTarget(t).apply(op)
		if n := len(op.Batch) + len(op.Row) + len(op.Patch); n > len(payload) {
			t.Fatalf("%d elements decoded from %d bytes", n, len(payload))
		}
		rec, err := appendRecord(nil, s.tables, op)
		if err != nil {
			if legacy {
				return
			}
			t.Fatalf("decoded op does not re-encode: %v\n%+v", err, op)
		}
		back, _, err := decodeRecord(s.tables, rec)
		if err != nil {
			t.Fatalf("re-encoded op does not decode: %v\n%+v", err, op)
		}
		if legacy || drifts(op) {
			return
		}
		if !sameOp(back, op) {
			t.Fatalf("round trip changed the op:\n %+v\n %+v", op, back)
		}
		if again := mustRecord(t, s, back); !bytes.Equal(again, rec) {
			t.Fatalf("encoding is not a fixed point:\n %x\n %x", rec, again)
		}
	})
}

// TestSeedCorpusIsLive keeps the checked-in corpus honest: its real records
// (taken from a log these schemas wrote, one of every kind, version 2
// patches and packed cells, and gob records of the same ops) must still
// decode, or a schema edit has quietly turned
// the fuzzer's starting points into inputs that bounce off the first check.
func TestSeedCorpusIsLive(t *testing.T) {
	s := recordStore(t)
	kinds := make(map[opKind]bool)
	for _, name := range []string{"create_table_instances", "create_table_wide", "insert_all_kinds", "insert_nulls_and_absent",
		"insert_instance", "update", "delete", "batch", "time_negative_odd_seconds", "indexes_wide",
		"patch", "patch_missing_row", "patch_changes_key", "insert_packed_ids", "batch_insert_then_patch",
		"legacy_gob_create_table", "legacy_gob_insert", "legacy_gob_batch"} {
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeRecord", name))
		if err != nil {
			t.Fatal(err)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(file)), "go test fuzz v1\n[]byte("), ")")
		payload, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		op, legacy, err := decodeRecord(s.tables, []byte(payload))
		if err != nil || legacy != strings.HasPrefix(name, "legacy_") {
			t.Errorf("%s: legacy=%v err=%v", name, legacy, err)
		}
		if !legacy {
			kinds[op.Kind] = true
		}
	}
	if len(kinds) != int(opPatch) {
		t.Errorf("corpus holds records of %d op kinds, want all %d", len(kinds), opPatch)
	}
}
