package relstore

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"gallery/internal/obs"
	"gallery/internal/wal"
)

// settle replaces the two values a log does not hand back bit for bit — a
// zone that drifts through MarshalBinary, and the -0 a gob record lost (see
// drifts and keepNegZero) — so live, replayed and upgraded stores can be
// compared whole.
func settle(row Row) Row {
	for name, v := range row {
		switch {
		case v.Kind == KindFloat && v.Float() == 0:
			row[name] = Float(0)
		case drifts(walOp{Row: Tuple{v}}):
			row[name] = Time(t0)
		}
	}
	return row
}

// lifecycleOps is a mixed log: both tables created, then inserts, updates,
// deletes and multi-row batches over a live key set, and changes of the
// wide table's indexes, every op valid against the state the ones before
// it leave.
func lifecycleOps(n int) []walOp {
	r := rand.New(rand.NewSource(4))
	models, wide := modelsSchema(), wideSchema()
	ops := []walOp{{Kind: opCreateTable, Schema: &models}, {Kind: opCreateTable, Schema: &wide}}
	var live []string // wide keys present
	next := 0
	insert := func() walOp {
		row := settle(randomWideRow(r))
		key := fmt.Sprintf("w%03d", next)
		next++
		row["id"] = String(key)
		live = append(live, key)
		return walOp{Kind: opInsert, Table: "wide", Row: tupleOf("wide", row)}
	}
	update := func() walOp {
		row := settle(randomWideRow(r))
		row["id"] = String(pick(r, live))
		return walOp{Kind: opUpdate, Table: "wide", Row: tupleOf("wide", row)}
	}
	remove := func() walOp {
		i := r.Intn(len(live))
		key := live[i]
		live = append(live[:i], live[i+1:]...)
		return walOp{Kind: opDelete, Table: "wide", PK: key}
	}
	indexes := wide.Indexes
	for len(ops) < n {
		switch k := r.Intn(11); {
		case len(live) < 3 || k < 3:
			ops = append(ops, insert())
		case k < 5:
			ops = append(ops, update())
		case k < 6:
			ops = append(ops, remove())
		case k < 8:
			ops = append(ops, walOp{Kind: opInsert, Table: "instances",
				Row: tupleOf("instances", settle(row(fmt.Sprintf("i%03d", len(ops)), "b", pick(r, edgeStrings), pick(r, edgeTimes), r.Float64())))})
		case k < 10:
			ops = append(ops, walOp{Kind: opBatch, Batch: []walOp{insert(), update(), remove(), insert()}})
		default: // an index change; an unchanged list would log nothing
			next := randomIndexes(r)
			if slices.Equal(next, indexes) {
				continue
			}
			indexes = next
			ops = append(ops, walOp{Kind: opIndexes, Table: "wide", Indexes: indexes})
		}
	}
	return ops
}

// play performs op through the store's public mutators, as a caller would.
func play(t testing.TB, s *Store, op walOp) {
	t.Helper()
	var err error
	switch op.Kind {
	case opCreateTable:
		err = s.CreateTable(*op.Schema)
	case opInsert:
		err = s.InsertCtx(context.Background(), op.Table, rowOf(op))
	case opUpdate:
		err = s.Update(context.Background(), op.Table, rowOf(op))
	case opDelete:
		err = s.Delete(context.Background(), op.Table, op.PK)
	case opBatch:
		muts := make([]Mutation, len(op.Batch))
		for i, sub := range op.Batch {
			muts[i] = Mutation{Kind: MutationKind(sub.Kind - opInsert + 1), Table: sub.Table, Row: rowOf(sub), PK: sub.PK}
		}
		err = s.Batch(context.Background(), muts)
	case opIndexes: // the table declared again with other indexes
		sc := s.tables[op.Table].schema
		sc.Indexes = op.Indexes
		err = s.CreateTable(sc)
	}
	if err != nil {
		t.Fatalf("play %+v: %v", op, err)
	}
}

// rowOf is a row op's row by column name, as a caller passes it.
func rowOf(op walOp) Row {
	if op.Row == nil {
		return nil
	}
	return byName(testSchemas[op.Table].Columns, op.Row)
}

// dump renders the whole store in a fixed order, every value down to float
// bits and time zone, and checks on the way that each index agrees with the
// rows: two stores hold the same contents exactly when their dumps match.
func dump(t testing.TB, s *Store) string {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tb := s.tables[name]
		fmt.Fprintf(&b, "table %s %+v\n", name, tb.schema)
		postings := make([][]string, len(tb.indexes)) // each index's expected keys
		tb.scanAll(false, func(r Tuple) bool {
			for i, c := range tb.schema.Columns {
				if v := r[i]; !v.IsNull() {
					enc, err := appendValue(nil, v)
					if err != nil {
						t.Fatalf("dump %s.%s: %v", name, c.Name, err)
					}
					fmt.Fprintf(&b, " %s=%x", c.Name, enc)
				}
			}
			b.WriteByte('\n')
			pk := r[tb.schema.Pos(tb.schema.Key)].Str
			for i, ix := range tb.indexes {
				if k, ok := ix.appendKey(nil, r, pk); ok {
					if ix.pkOf(string(k)) != pk {
						t.Fatalf("table %s: index %s's posting for row %s ends in pk %q", name, ix.name, pk, ix.pkOf(string(k)))
					}
					postings[i] = append(postings[i], string(k))
				}
			}
			return true
		})
		if tb.pks.Len() != len(tb.rows) {
			t.Fatalf("table %s: %d primary keys for %d rows", name, tb.pks.Len(), len(tb.rows))
		}
		if len(tb.indexes) != len(tb.schema.Indexes) {
			t.Fatalf("table %s: %d indexes for %d declared", name, len(tb.indexes), len(tb.schema.Indexes))
		}
		for i, ix := range tb.indexes {
			var held []string
			ix.tree.AscendRange("", "", func(k string) bool { held = append(held, k); return true })
			sort.Strings(postings[i])
			if ix.name != tb.schema.Indexes[i] || ix.tree.Len() != len(held) || !slices.Equal(held, postings[i]) {
				t.Fatalf("table %s: index %s holds %d postings (Len %d), not the %d of the rows with its columns set", name, ix.name, len(held), ix.tree.Len(), len(postings[i]))
			}
		}
	}
	return b.String()
}

// TestLegacyLogUpgrades: a log whose first half a daemon before version 1
// wrote (gob) and whose second half this one appended replays to the same
// contents as the all-new log of the same ops, keeps accepting appends, and
// holds no gob record after Compact.
func TestLegacyLogUpgrades(t *testing.T) {
	ops := lifecycleOps(120)
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

	path := filepath.Join(dir, "meta.wal")
	old, err := wal.Open(path, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	half := len(ops) / 2
	for _, op := range ops[:half] {
		if err := old.Append(gobRecord(t, op)); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatalf("open a legacy log: %v", err)
	}
	if records, legacy := s.Replayed(); records != half || legacy != half {
		t.Fatalf("replayed %d records, %d legacy, want %d, all legacy", records, legacy, half)
	}
	for _, op := range ops[half:] {
		play(t, s, op)
	}
	if got := dump(t, s); got != want {
		t.Fatalf("legacy prefix + live appends differ from the all-new store:\n%s\nwant\n%s", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(path, wal.Options{})
	if err != nil {
		t.Fatalf("open a mixed log: %v", err)
	}
	defer s.Close()
	if records, legacy := s.Replayed(); records != len(ops) || legacy != half {
		t.Fatalf("replayed %d records, %d legacy, want %d of which %d legacy", records, legacy, len(ops), half)
	}
	if got := dump(t, s); got != want {
		t.Fatalf("mixed log replayed to different contents:\n%s\nwant\n%s", got, want)
	}

	before := s.LogSize()
	if err := s.Compact(path); err != nil {
		t.Fatal(err)
	}
	if s.LogSize() >= before {
		t.Fatalf("compaction grew the log: %d -> %d", before, s.LogSize())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if records, legacy := s.Replayed(); legacy != 0 || records == 0 {
		t.Fatalf("after Compact replayed %d records, %d legacy, want none legacy", records, legacy)
	}
	if got := dump(t, s); got != want {
		t.Fatalf("compacted log replayed to different contents:\n%s\nwant\n%s", got, want)
	}
}

// TestCrashSweep cuts a version 2 log, its updates logged as patches, at
// every record boundary and at a sample of offsets inside every record. Each cut must reopen holding
// exactly the ops wholly before it, with the torn tail gone, and accept an
// append that is still there after another restart.
func TestCrashSweep(t *testing.T) {
	ops := lifecycleOps(80)
	if !slices.ContainsFunc(ops, func(op walOp) bool { return op.Kind == opIndexes }) {
		t.Fatal("the swept log holds no index change")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.wal")
	s, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, len(ops))    // log size once op i is appended
	states := make([]string, len(ops)) // store contents once op i is applied
	for i, op := range ops {
		play(t, s, op)
		ends[i], states[i] = s.LogSize(), dump(t, s)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, patches := scanLog(t, path); len(patches) == 0 {
		t.Fatal("the swept log holds no patch")
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cutPath := filepath.Join(dir, "cut.wal")
	probe := Row{"id": String("after-the-crash")}
	check := func(cut, wantSize int64, want string) {
		t.Helper()
		if err := os.WriteFile(cutPath, log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(cutPath, wal.Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if s.LogSize() != wantSize {
			t.Fatalf("cut at %d: log is %d bytes after recovery, want %d", cut, s.LogSize(), wantSize)
		}
		if got := dump(t, s); got != want {
			t.Fatalf("cut at %d recovered\n%s\nwant\n%s", cut, got, want)
		}
		if err := s.InsertCtx(context.Background(), "wide", probe); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(cutPath, wal.Options{})
		if err != nil {
			t.Fatalf("cut at %d: reopen after append: %v", cut, err)
		}
		defer s.Close()
		if _, err := s.Get(context.Background(), "wide", "after-the-crash"); err != nil {
			t.Fatalf("cut at %d: the append after recovery is gone: %v", cut, err)
		}
	}

	// The first two records create the tables the probe row needs, so the
	// sweep starts after them.
	for i := 1; i < len(ops)-1; i++ {
		start, end := ends[i], ends[i+1]
		check(start, start, states[i])
		// Inside record i+1: in its header, at the header's end, in the
		// payload, and one byte short of whole.
		for _, cut := range []int64{start + 1, start + 7, start + 8, (start + 8 + end) / 2, end - 1} {
			check(cut, start, states[i])
		}
	}
	last := len(ops) - 1
	check(ends[last], ends[last], states[last])
}

// TestCompactDiscardsStaleSnapshot: a compaction that died before its
// rename leaves path.compact behind. The next one must start over rather
// than append its snapshot after the stale one — which renamed into place
// replays as duplicate primary keys and stops the daemon from starting.
func TestCompactDiscardsStaleSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range lifecycleOps(40) {
		play(t, s, op)
	}
	want := dump(t, s)
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".compact", live, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, wal.Options{})
	if err != nil {
		t.Fatalf("open after compacting over a stale snapshot: %v", err)
	}
	defer s.Close()
	if got := dump(t, s); got != want {
		t.Fatalf("recovered\n%s\nwant\n%s", got, want)
	}
}

// TestCompactFailedSwapKeepsStoreWritable: once Compact has closed the live
// log for the swap, a failing rename must not leave the store holding a
// closed log. The rename is made to fail by compacting onto a directory.
func TestCompactFailedSwapKeepsStoreWritable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.wal")
	s, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range lifecycleOps(40) {
		play(t, s, op)
	}
	elsewhere := filepath.Join(dir, "taken")
	if err := os.Mkdir(elsewhere, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(elsewhere); err == nil {
		t.Fatal("compacting onto a directory succeeded")
	}
	if _, err := os.Stat(elsewhere + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("the abandoned snapshot was left behind: %v", err)
	}
	if err := s.InsertCtx(context.Background(), "wide", Row{"id": String("after-the-failure")}); err != nil {
		t.Fatalf("mutation after a failed swap: %v", err)
	}
	want := dump(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := dump(t, s); got != want {
		t.Fatalf("recovered\n%s\nwant\n%s", got, want)
	}
}

// TestWALBytesCounter: relstore_wal_bytes_total over relstore_wal_records_total
// is the payload bytes per record, so with the log's 8-byte frames added
// back the two counters account for every byte the log grew by.
func TestWALBytesCounter(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "meta.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	for _, op := range lifecycleOps(40) {
		play(t, s, op)
	}
	records, bytes := reg.Counter("relstore_wal_records_total").Value(), reg.Counter("relstore_wal_bytes_total").Value()
	if records != 40 || bytes+8*records != s.LogSize() {
		t.Fatalf("%d records, %d payload bytes; the log holds %d bytes", records, bytes, s.LogSize())
	}
}
