package relstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gallery/internal/wal"
)

// patchTarget is recordStore holding a wide row "k" with every cell set and
// an instances row "i1", so that patches of those keys apply.
func patchTarget(t testing.TB) *Store {
	t.Helper()
	s := recordStore(t)
	ctx := context.Background()
	if err := s.InsertCtx(ctx, "wide", Row{"id": String("k"), "s": String(testUUID), "i": Int(1), "f": Float(0.5), "b": Bool(true), "t": Time(t0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertCtx(ctx, "instances", row("i1", "b", "sf", t0, 0.1)); err != nil {
		t.Fatal(err)
	}
	return s
}

// randomPatchOp draws a patch of the wide table: any subset of its non-key
// columns, each set to null or an edge value, mostly of the row "k".
func randomPatchOp(r *rand.Rand) walOp {
	op := walOp{Kind: opPatch, Table: "wide", PK: "k"}
	if r.Intn(4) == 0 {
		op.PK += pick(r, edgeStrings)
	}
	full := tupleOf("wide", randomWideRow(r))
	for pos := 1; pos < len(full); pos++ {
		if r.Intn(2) == 0 {
			op.Patch = append(op.Patch, patchCell{pos, full[pos]})
		}
	}
	return op
}

// scanLog reads the log at path as Open would and reports how many records
// it holds of each format version (0 for gob) and the cell count of every
// patch in it.
func scanLog(t testing.TB, path string) (versions map[byte]int, patches []int) {
	t.Helper()
	versions = make(map[byte]int)
	scratch := NewMemory()
	var visit func(op walOp)
	visit = func(op walOp) {
		if op.Kind == opPatch {
			patches = append(patches, len(op.Patch))
		}
		for _, sub := range op.Batch {
			visit(sub)
		}
	}
	l, err := wal.Open(path, wal.Options{}, func(payload []byte) error {
		op, legacy, err := decodeRecord(scratch.tables, payload)
		if err != nil {
			return err
		}
		if legacy {
			versions[0]++
		} else {
			versions[payload[1]]++
		}
		visit(op)
		return scratch.apply(op)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return versions, patches
}

// TestRecordLayoutV2 pins version 2's bytes: a patch with a cell that
// clears its column, and string cells packed as a uuid and as hex next to
// the near misses that stay plain. Each decodes back to the very strings
// written.
func TestRecordLayoutV2(t *testing.T) {
	s := recordStore(t)
	uuidBytes := []byte{0x0f, 0x8f, 0xad, 0x5b, 0xd9, 0xcb, 0x46, 0x9f, 0xa1, 0x65, 0x70, 0x86, 0x77, 0x28, 0x95, 0x0e}
	hexBytes := []byte{0xe3, 0xb0, 0xc4, 0x42, 0x98, 0xfc, 0x1c, 0x14, 0x9a, 0xfb, 0xf4, 0xc8, 0x99, 0x6f, 0xb9, 0x24}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	wide := []byte{4, 'w', 'i', 'd', 'e'}
	for _, c := range []struct {
		name string
		op   walOp
		want []byte
	}{
		{"patch clearing s and setting i", walOp{Kind: opPatch, Table: "wide", PK: "k", Patch: []patchCell{{1, Value{}}, {2, Int(-3)}}},
			cat([]byte{recordMagic, 2, byte(opPatch)}, wide, []byte{1, 'k', 2, 1, 0, 2, byte(KindInt), 5})},
		{"empty patch", walOp{Kind: opPatch, Table: "wide", PK: "k"},
			cat([]byte{recordMagic, 2, byte(opPatch)}, wide, []byte{1, 'k', 0})},
		{"uuid key, hex string", walOp{Kind: opInsert, Table: "wide", Row: tupleOf("wide", Row{"id": String(testUUID), "s": String(testHex[:32])})},
			cat([]byte{recordMagic, 2, byte(opInsert)}, wide, []byte{2, 0, cellUUID}, uuidBytes, []byte{1, cellHex, 16}, hexBytes)},
		{"uppercase uuid stays plain", walOp{Kind: opPatch, Table: "wide", PK: "k", Patch: []patchCell{{1, String(strings.ToUpper(testUUID))}}},
			cat([]byte{recordMagic, 2, byte(opPatch)}, wide, []byte{1, 'k', 1, 1, byte(KindString), 36}, []byte(strings.ToUpper(testUUID)))},
		{"odd-length hex stays plain", walOp{Kind: opPatch, Table: "wide", PK: "k", Patch: []patchCell{{1, String(testHex[:33])}}},
			cat([]byte{recordMagic, 2, byte(opPatch)}, wide, []byte{1, 'k', 1, 1, byte(KindString), 33}, []byte(testHex[:33]))},
		{"30 hex digits stay plain", walOp{Kind: opPatch, Table: "wide", PK: "k", Patch: []patchCell{{1, String(testHex[:30])}}},
			cat([]byte{recordMagic, 2, byte(opPatch)}, wide, []byte{1, 'k', 1, 1, byte(KindString), 30}, []byte(testHex[:30]))},
	} {
		got, err := appendRecord(nil, s.tables, c.op)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s:\n got %x\nwant %x", c.name, got, c.want)
		}
		back, legacy, err := decodeRecord(s.tables, got)
		if err != nil || legacy || !sameOp(back, c.op) {
			t.Errorf("%s: decoded %+v (legacy %v, err %v), want %+v", c.name, back, legacy, err, c.op)
		}
	}
}

// TestPatchRefusals: what the decoder refuses in version 2, what it refuses
// in a version 1 record that version 2 allows, and what replay refuses of
// a patch that decodes.
func TestPatchRefusals(t *testing.T) {
	s := recordStore(t)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	v1, v2 := []byte{recordMagic, 1}, []byte{recordMagic, 2}
	wide := []byte{4, 'w', 'i', 'd', 'e'}
	patchK := cat([]byte{byte(opPatch)}, wide, []byte{1, 'k'})
	uuid16 := bytes.Repeat([]byte{0xab}, 16)
	for name, p := range map[string][]byte{
		"patch in version 1":           cat(v1, patchK, []byte{0}),
		"uuid cell in version 1":       cat(v1, []byte{byte(opInsert)}, wide, []byte{1, 0, cellUUID}, uuid16),
		"hex cell in version 1":        cat(v1, []byte{byte(opInsert)}, wide, []byte{1, 0, cellHex, 16}, uuid16),
		"hex cell of 15 bytes":         cat(v2, []byte{byte(opInsert)}, wide, []byte{1, 0, cellHex, 15}, uuid16[:15]),
		"hex cell past payload":        cat(v2, []byte{byte(opInsert)}, wide, []byte{1, 0, cellHex, 17}, uuid16),
		"uuid cell truncated":          cat(v2, []byte{byte(opInsert)}, wide, []byte{1, 0, cellUUID}, uuid16[:15]),
		"patch column repeated":        cat(v2, patchK, []byte{2, 1, 0, 1, 0}),
		"patch columns descending":     cat(v2, patchK, []byte{2, 2, 0, 1, 0}),
		"patch column out of range":    cat(v2, patchK, []byte{1, 6, 0}),
		"patch more cells than column": cat(v2, patchK, []byte{7}, bytes.Repeat([]byte{0, 0}, 7)),
		"patch of an unknown table":    cat(v2, []byte{byte(opPatch), 1, 'x', 1, 'k', 0}),
		"patch without its key":        cat(v2, []byte{byte(opPatch)}, wide),
		"version 3":                    {recordMagic, 3, byte(opDelete), 0, 0},
	} {
		if _, _, err := decodeRecord(s.tables, p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	for name, c := range map[string]struct {
		op   walOp
		want error
	}{
		"patch of a missing row":   {walOp{Kind: opPatch, Table: "wide", PK: "nope"}, ErrNotFound},
		"patch changing the key":   {walOp{Kind: opPatch, Table: "wide", PK: "k", Patch: []patchCell{{0, String("k2")}}}, nil},
		"patch clearing a non-nul": {walOp{Kind: opPatch, Table: "instances", PK: "i1", Patch: []patchCell{{1, Value{}}}}, nil},
		"patch of the wrong kind":  {walOp{Kind: opPatch, Table: "wide", PK: "k", Patch: []patchCell{{2, String("1")}}}, nil},
		"patch in a batch, missing row": {walOp{Kind: opBatch, Batch: []walOp{{Kind: opDelete, Table: "wide", PK: "k"},
			{Kind: opPatch, Table: "wide", PK: "k"}}}, ErrNotFound},
	} {
		target := patchTarget(t)
		before := dump(t, target)
		rec, err := appendRecord(nil, target.tables, c.op)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		op, _, err := decodeRecord(target.tables, rec)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		err = target.apply(op)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: apply gave %v, want an error (%v)", name, err, c.want)
		}
		if c.op.Kind == opPatch && dump(t, target) != before {
			t.Errorf("%s: a refused patch changed the store", name)
		}
	}

	// The batch form the writer produces: an insert and a patch of the row
	// it inserted, in one record.
	target := patchTarget(t)
	batch := walOp{Kind: opBatch, Batch: []walOp{
		{Kind: opInsert, Table: "wide", Row: tupleOf("wide", Row{"id": String("k2"), "i": Int(1)})},
		{Kind: opPatch, Table: "wide", PK: "k2", Patch: []patchCell{{1, String(testUUID)}, {2, Value{}}}},
	}}
	op, _, err := decodeRecord(target.tables, mustRecord(t, target, batch))
	if err != nil {
		t.Fatal(err)
	}
	if err := target.apply(op); err != nil {
		t.Fatalf("insert then patch in one batch: %v", err)
	}
	got, err := target.Get(context.Background(), "wide", "k2")
	if err != nil || !sameRow(got, Row{"id": String("k2"), "s": String(testUUID)}) {
		t.Fatalf("insert then patch gave %#v, %v", got, err)
	}
}

// TestPatchReplayProperty: random update sequences, written through Update
// and Batch, replay to the live state, and still do after Compact. The
// updates change no cell, one cell or every cell, clear cells, write
// uppercase UUIDs, and update one row twice in one batch, or insert and
// update it there.
func TestPatchReplayProperty(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "meta.wal")
		s, err := Open(path, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateTable(wideSchema()); err != nil {
			t.Fatal(err)
		}
		var keys []string
		made, step := 0, 0
		newRow := func() Row { // keyed by a canonical uuid
			row := settle(randomWideRow(r))
			row["id"] = String(fmt.Sprintf("%s%03d", testUUID[:33], made))
			made++
			keys = append(keys, row["id"].Str)
			return row
		}
		current := func(key string) Row {
			row, err := s.Get(ctx, "wide", key)
			if err != nil {
				t.Fatal(err)
			}
			return row
		}
		// update returns row with the cells mode asks for changed.
		modes := make(map[string]int)
		update := func(row Row) Row {
			next := row.Clone()
			mode := pick(r, []string{"none", "one", "all", "null", "upper"})
			modes[mode]++
			switch mode {
			case "one":
				col := pick(r, []string{"s", "i", "f", "b", "t"})
				if v := settle(randomWideRow(r))[col]; v.IsNull() {
					delete(next, col)
				} else {
					next[col] = v
				}
			case "all": // values no earlier row holds
				step++
				next["s"] = String(fmt.Sprintf("%s%d", testHex[:32], step))
				next["i"] = Int(int64(1e6 + step))
				next["f"] = Float(float64(step) + 0.25)
				next["b"] = Bool(!row["b"].Bool())
				next["t"] = Time(time.Unix(int64(step), 7).UTC())
			case "null":
				delete(next, pick(r, []string{"s", "i", "f", "b", "t"}))
			case "upper":
				next["s"] = String(strings.ToUpper(testUUID))
			}
			return next
		}
		for i := 0; i < 8; i++ {
			if err := s.InsertCtx(ctx, "wide", newRow()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 150; i++ {
			key := pick(r, keys)
			var err error
			switch r.Intn(5) {
			case 0, 1:
				err = s.Update(ctx, "wide", update(current(key)))
			case 2: // the same row twice in one batch
				first := update(current(key))
				err = s.Batch(ctx, []Mutation{{Kind: MutUpdate, Table: "wide", Row: first}, {Kind: MutUpdate, Table: "wide", Row: update(first)}})
			case 3: // inserted and updated in one batch
				row := newRow()
				err = s.Batch(ctx, []Mutation{{Kind: MutInsert, Table: "wide", Row: row}, {Kind: MutUpdate, Table: "wide", Row: update(row)}})
			default:
				if len(keys) > 4 {
					err = s.Delete(ctx, "wide", key)
					keys = slices.DeleteFunc(keys, func(k string) bool { return k == key })
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range []string{"none", "one", "all", "null", "upper"} {
			if modes[mode] == 0 {
				t.Fatalf("seed %d: no update of mode %s", seed, mode)
			}
		}
		want := dump(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		versions, patches := scanLog(t, path)
		if versions[1] != 0 || len(patches) == 0 {
			t.Fatalf("seed %d: log holds %v records by version and %d patches", seed, versions, len(patches))
		}
		if cells := patchCellCounts(patches); cells[0] == 0 || cells[1] == 0 || cells[5] == 0 {
			t.Fatalf("seed %d: patches by cell count %v, want some of 0, 1 and all 5", seed, cells)
		}
		for _, step := range []string{"replay", "compact"} {
			s, err = Open(path, wal.Options{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, step, err)
			}
			if got := dump(t, s); got != want {
				t.Fatalf("seed %d: %s gave\n%s\nwant\n%s", seed, step, got, want)
			}
			if step == "replay" {
				if err := s.Compact(path); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func patchCellCounts(patches []int) map[int]int {
	m := make(map[int]int)
	for _, n := range patches {
		m[n]++
	}
	return m
}

// plainStrings returns ops with every non-key string cell uppercased, so
// that no cell is packed and each record is what a version 1 writer wrote
// but for the version byte.
func plainStrings(ops []walOp) []walOp {
	out := make([]walOp, len(ops))
	for i, op := range ops {
		if op.Row != nil {
			op.Row = slices.Clone(op.Row)
			for pos := 1; pos < len(op.Row); pos++ {
				if op.Row[pos].Kind == KindString {
					op.Row[pos].Str = strings.ToUpper(op.Row[pos].Str)
				}
			}
		}
		op.Batch = plainStrings(op.Batch)
		out[i] = op
	}
	return out
}

// TestVersion1LogUpgrades: a log whose first half a version 1 writer wrote
// (whole-row updates, no packed cells) and whose second half this one
// appended replays to the same contents as the all-new log of the same
// ops, and Compact rewrites it into version 2 records only.
func TestVersion1LogUpgrades(t *testing.T) {
	ops := lifecycleOps(120)
	half := len(ops) / 2
	ops = append(plainStrings(ops[:half]), ops[half:]...)
	dir := t.TempDir()
	fresh, err := Open(filepath.Join(dir, "fresh.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, op := range ops {
		play(t, fresh, op)
	}
	want := dump(t, fresh)

	// What a version 1 writer logged is the op itself, in the bytes
	// version 2 gives it whenever it holds no packed cell.
	path := filepath.Join(dir, "meta.wal")
	old, err := wal.Open(path, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := recordStore(t)
	for _, op := range ops[:half] {
		rec := mustRecord(t, v1, op)
		rec[1] = 1
		if err := old.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatalf("open a version 1 log: %v", err)
	}
	for _, op := range ops[half:] {
		play(t, s, op)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if versions, patches := scanLog(t, path); versions[1] != half || versions[2] != len(ops)-half || len(patches) == 0 {
		t.Fatalf("mixed log holds %v records by version and %d patches, want %d of version 1", versions, len(patches), half)
	}

	s, err = Open(path, wal.Options{})
	if err != nil {
		t.Fatalf("open a mixed log: %v", err)
	}
	if got := dump(t, s); got != want {
		t.Fatalf("mixed log replayed to\n%s\nwant\n%s", got, want)
	}
	if err := s.Compact(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if versions, _ := scanLog(t, path); versions[0] != 0 || versions[1] != 0 || versions[2] == 0 {
		t.Fatalf("compacted log holds %v records by version, want version 2 only", versions)
	}
	s, err = Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := dump(t, s); got != want {
		t.Fatalf("compacted log replayed to\n%s\nwant\n%s", got, want)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("compaction left its snapshot behind: %v", err)
	}
}
