package relstore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gallery/internal/btree"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/wal"
)

// Sentinel errors for callers that branch on failure modes.
var (
	ErrNoTable   = errors.New("relstore: no such table")
	ErrDuplicate = errors.New("relstore: duplicate primary key")
	ErrNotFound  = errors.New("relstore: row not found")
)

// Store is an embedded relational store. All methods are safe for
// concurrent use.
//
// Durability is split from mutation. A mutator applies its change and
// appends the WAL record under mu, in that order, and returns without
// waiting for the disk; Commit makes every mutation that returned before
// it durable. So with wal.Options.Sync a caller must Commit before it
// acknowledges a write to anyone, concurrent callers share one fsync, and
// no fsync is ever issued under mu. Two consequences: a concurrent reader
// can see a row up to one Commit before it is durable, and because apply
// and append happen under the same lock in the same order, what recovery
// rebuilds is always a prefix of the applied history.
type Store struct {
	mu      sync.RWMutex
	tables  map[string]*table
	log     *wal.Log    // nil for volatile stores
	path    string      // where Open found the log
	walOpts wal.Options // kept so Compact reopens the log as Open did
	recBuf  []byte      // record encoding scratch, reused under mu

	replayed, replayedLegacy int  // records Open applied; of those, gob-format ones
	replaying                bool // Open is applying the log: tables it creates defer their trees

	ops           *obs.CounterVec // relstore_ops_total{op,table}
	walSeconds    *obs.Histogram
	commitSeconds *obs.Histogram
	walRecords    *obs.Counter
	walBytes      *obs.Counter
	walCommits    *obs.Counter
}

// Instrument redirects the store's metrics to reg (default obs.Default).
// Call before serving traffic.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops = reg.CounterVec("relstore_ops_total", []string{"op", "table"}, 0)
	s.walSeconds = reg.Histogram("relstore_wal_append_seconds", obs.LatencyBuckets)
	reg.Help("relstore_wal_append_seconds", "Time to write one WAL record through to the OS; the fsync is not in it, see relstore_wal_commit_seconds.")
	s.commitSeconds = reg.Histogram("relstore_wal_commit_seconds", obs.LatencyBuckets)
	reg.Help("relstore_wal_commit_seconds", "Time a Commit with records outstanding waited for the WAL fsync, its own or one shared with concurrent committers.")
	s.walRecords = reg.Counter("relstore_wal_records_total")
	reg.Help("relstore_wal_records_total", "WAL records appended; over relstore_wal_commits_total it is the records made durable per fsync.")
	s.walBytes = reg.Counter("relstore_wal_bytes_total")
	reg.Help("relstore_wal_bytes_total", "WAL record payload bytes appended, without the log's 8-byte frame per record; over relstore_wal_records_total it is the bytes per record.")
	s.walCommits = reg.Counter("relstore_wal_commits_total")
	reg.Help("relstore_wal_commits_total", "WAL fsyncs issued by Commit; committers that arrive together share one, so this grows slower than the requests that wrote.")
}

// countOp bumps the per-table operation counter, e.g.
// relstore_ops_total{op="insert",table="instances"}.
func (s *Store) countOp(op, tableName string) { s.ops.With2(op, tableName).Inc() }

type table struct {
	schema  Schema
	rows    map[string]Tuple // by primary key
	pks     *btree.Tree      // ordered primary keys for stable scans
	indexes []*index         // secondary indexes, in Schema.Indexes order
	// replaying is set while Open applies the log: mutations then keep rows
	// only, and build makes pks and every index once, after the last record.
	replaying bool
}

// buildAll ends replay: it bulk-loads every table's pks and each of its
// indexes from the rows, one job per tree on GOMAXPROCS workers, largest
// table first. A job reads only its table's rows and writes only its own
// tree.
func buildAll(tables map[string]*table) {
	ts := make([]*table, 0, len(tables))
	for _, t := range tables {
		t.replaying = false
		ts = append(ts, t)
	}
	slices.SortFunc(ts, func(a, b *table) int { return len(b.rows) - len(a.rows) })
	var jobs []func()
	for _, t := range ts {
		jobs = append(jobs, t.buildPKs)
		for _, ix := range t.indexes {
			jobs = append(jobs, func() { t.buildIndexes([]*index{ix}) })
		}
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				jobs[i]()
			}
		}()
	}
	wg.Wait()
}

// buildPKs bulk-loads pks from the rows.
func (t *table) buildPKs() {
	pks := make([]string, 0, len(t.rows))
	for pk := range t.rows {
		pks = append(pks, pk)
	}
	t.pks = sortedTree(pks)
}

// buildIndexes replaces the postings of each of ixs with those of t's rows:
// one index at a time, every posting appended to one buffer in a pass over
// the rows, then cut out of one string, sorted and bulk-loaded, with no
// comparison in the trees. So an index costs a few allocations whatever
// its size; the price is that a posting removed later keeps its bytes
// until the store is reopened or compacted.
func (t *table) buildIndexes(ixs []*index) {
	var (
		arena strings.Builder
		ends  []int
	)
	var buf []byte
	for _, ix := range ixs {
		arena.Reset()
		ends = ends[:0]
		for pk, row := range t.rows {
			var ok bool
			if buf, ok = ix.appendKey(buf[:0], row, pk); ok {
				arena.Write(buf)
				ends = append(ends, arena.Len())
			}
		}
		all := arena.String()
		keys := make([]string, len(ends))
		start := 0
		for i, end := range ends {
			keys[i], start = all[start:end], end
		}
		ix.tree = sortedTree(keys)
	}
}

// sortedTree sorts keys and bulk-loads them; they must be distinct.
func sortedTree(keys []string) *btree.Tree {
	slices.Sort(keys)
	return btree.FromSorted(keys)
}

// NewMemory returns a volatile in-memory store.
func NewMemory() *Store {
	s := &Store{tables: make(map[string]*table)}
	s.Instrument(nil)
	return s
}

// Open returns a durable store backed by a write-ahead log at path. Existing
// state is replayed; a torn tail from a crash is truncated. Records are read
// in the version 1 or 2 format of record.go or, where a daemon older than
// those wrote them, as gob; everything appended is version 2. Replay checks
// every record against the rows as a live mutation would, but builds the
// primary-key tree and the indexes of each table once, after the last
// record, by sorting their keys and bulk-loading them, the trees in
// parallel.
func Open(path string, opts wal.Options) (*Store, error) {
	s := &Store{tables: make(map[string]*table), path: path, replaying: true}
	s.Instrument(nil)
	l, err := wal.Open(path, opts, func(payload []byte) error {
		op, legacy, err := decodeRecord(s.tables, payload)
		if err != nil {
			return err
		}
		s.replayed++
		if legacy {
			s.replayedLegacy++
		}
		return s.apply(op) // the decoded rows are nobody else's: installed as they are
	})
	if err != nil {
		return nil, err
	}
	s.replaying = false
	buildAll(s.tables)
	s.log, s.walOpts = l, opts
	return s, nil
}

// Replayed reports how many WAL records Open applied and how many of them
// were in the gob format that preceded version 1 — records the next Compact
// rewrites. Their bytes are LogSize as Open returns. Zero for a volatile
// store.
func (s *Store) Replayed() (records, legacy int) { return s.replayed, s.replayedLegacy }

// Close commits outstanding records and releases the write-ahead log, if
// any.
func (s *Store) Close() error {
	if l := s.wal(); l != nil {
		return l.Close()
	}
	return nil
}

// wal returns the current log; Compact swaps it under mu.
func (s *Store) wal() *wal.Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.log
}

// Commit makes every mutation that returned before the call durable. It
// is the acknowledgement boundary: call it once per unit of work, after
// the last mutation and before telling anyone the work is done. It is a
// no-op for volatile stores and without wal.Options.Sync. The fsync wait
// gets its own span, apart from the appends, and the commit-latency
// histogram an exemplar pointing back at the trace.
func (s *Store) Commit(ctx context.Context) error {
	l := s.wal()
	if l == nil || !s.walOpts.Sync {
		return nil
	}
	// With nothing outstanding the call only surfaces a closed or failed
	// log: not a wait an operator should see in the span or the metrics.
	outstanding := l.Durable() < l.Size()
	var (
		span  *trace.Span
		start time.Time
	)
	if outstanding {
		_, span = trace.Start(ctx, "relstore.wal_commit")
		start = time.Now()
	}
	synced, err := l.CommitSynced()
	for errors.Is(err, wal.ErrClosed) && s.wal() != l {
		// Compact swapped the log under us. Our records are in its
		// snapshot, which the new log made durable before taking over.
		l = s.wal()
		synced, err = l.CommitSynced()
	}
	if synced {
		s.walCommits.Inc()
	}
	if outstanding {
		s.commitSeconds.ObserveSinceExemplar(start, span.TraceIDString())
		span.EndErr(err)
	}
	return err
}

// walOp is the durable form of every mutation.
type walOp struct {
	Kind    opKind
	Schema  *Schema // CreateTable
	Table   string
	Row     Tuple       // Insert/Update, in the table's column order
	PK      string      // Delete/Patch
	Patch   []patchCell // Patch: the cells that change, columns ascending
	Batch   []walOp
	Indexes []string // Indexes: the table's new Schema.Indexes
}

// patchCell is one cell of a patch: a column position and the value it
// takes, null to clear it.
type patchCell struct {
	pos int
	v   Value
}

type opKind uint8

const (
	opCreateTable opKind = iota + 1
	opInsert
	opUpdate
	opDelete
	opBatch
	opIndexes
	opPatch // how an update is logged; see patchOf
)

// logOp persists op if the store is durable. The WAL append gets its own
// child span, and the append-latency histogram an exemplar pointing back
// at the trace. The record is written through to the OS, not fsynced —
// callers hold mu, and the disk wait belongs to Commit.
func (s *Store) logOp(ctx context.Context, op walOp) error {
	if s.log == nil {
		return nil
	}
	_, span := trace.Start(ctx, "relstore.wal_append")
	rec, err := s.encodeRecord(op)
	if err != nil {
		span.EndErr(err)
		return err
	}
	start := time.Now()
	err = s.log.AppendNoSync(rec)
	s.walSeconds.ObserveSinceExemplar(start, span.TraceIDString())
	s.walRecords.Inc()
	s.walBytes.Add(int64(len(rec)))
	if span != nil {
		span.AnnotateInt("bytes", int64(len(rec)))
	}
	span.EndErr(err)
	return err
}

// maxKeptRecordBuf bounds the scratch buffer encodeRecord keeps between
// records, so one outsized batch does not pin its size for good.
const maxKeptRecordBuf = 64 << 10

// encodeRecord encodes op into the store's scratch buffer: callers hold mu,
// so the encode is lock-hold time and, once the buffer has grown to the
// records in use, allocates nothing. The result is valid until the next
// call.
func (s *Store) encodeRecord(op walOp) ([]byte, error) {
	rec, err := appendRecord(s.recBuf[:0], s.tables, op)
	if err != nil {
		return nil, fmt.Errorf("relstore: encode wal record: %w", err)
	}
	if cap(rec) <= maxKeptRecordBuf {
		s.recBuf = rec
	}
	return rec, nil
}

// apply performs op against in-memory state and keeps op's rows: callers
// pass rows nobody else holds. Callers hold the write lock (or, during
// recovery, have exclusive access).
func (s *Store) apply(op walOp) error {
	switch op.Kind {
	case opCreateTable:
		if op.Schema == nil {
			return errors.New("relstore: wal CreateTable carries no schema")
		}
		return s.applyCreateTable(*op.Schema)
	case opInsert:
		return s.applyInsert(op.Table, op.Row)
	case opUpdate:
		return s.applyUpdate(op.Table, op.Row)
	case opPatch:
		return s.applyPatch(op.Table, op.PK, op.Patch)
	case opDelete:
		return s.applyDelete(op.Table, op.PK)
	case opBatch:
		for _, sub := range op.Batch {
			if err := s.apply(sub); err != nil {
				return err
			}
		}
		return nil
	case opIndexes:
		return s.applyIndexes(op.Table, op.Indexes)
	default:
		return fmt.Errorf("relstore: unknown wal op %d", op.Kind)
	}
}

// CreateTable declares a new table. Creating a table that already exists
// with an identical schema is a no-op, so callers can declare schemas
// unconditionally at startup over a recovered store. A schema that differs
// from the existing one only in its Indexes is applied in place: the
// indexes are rebuilt from the rows and the change is logged, so a data
// directory opens under a program that declares different indexes. Any
// other difference is refused.
func (s *Store) CreateTable(schema Schema) error {
	if err := schema.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.tables[schema.Table]; ok {
		switch {
		case schemaEqual(existing.schema, schema):
			return nil
		case !sameColumns(existing.schema, schema):
			return fmt.Errorf("relstore: table %s already exists with different columns", schema.Table)
		}
		if err := s.applyIndexes(schema.Table, schema.Indexes); err != nil {
			return err
		}
		return s.logOp(context.Background(), walOp{Kind: opIndexes, Table: schema.Table, Indexes: schema.Indexes})
	}
	if err := s.applyCreateTable(schema); err != nil {
		return err
	}
	return s.logOp(context.Background(), walOp{Kind: opCreateTable, Schema: &schema})
}

func schemaEqual(a, b Schema) bool {
	return sameColumns(a, b) && slices.Equal(a.Indexes, b.Indexes)
}

// sameColumns reports whether a and b agree on everything but Indexes.
func sameColumns(a, b Schema) bool {
	return a.Table == b.Table && a.Key == b.Key && slices.Equal(a.Columns, b.Columns)
}

func (s *Store) applyCreateTable(schema Schema) error {
	if existing, ok := s.tables[schema.Table]; ok {
		// During WAL replay an identical create is idempotent.
		if schemaEqual(existing.schema, schema) {
			return nil
		}
		return fmt.Errorf("relstore: table %s already exists", schema.Table)
	}
	t := &table{
		schema:    schema,
		rows:      make(map[string]Tuple),
		pks:       btree.New(),
		replaying: s.replaying,
	}
	for _, name := range schema.Indexes {
		t.indexes = append(t.indexes, newIndex(&t.schema, name))
	}
	s.tables[schema.Table] = t
	return nil
}

// applyIndexes replaces a table's index list: an index it already has
// keeps its postings, a new one is built from the rows (during replay, with
// the others after the last record), a dropped one is discarded.
func (s *Store) applyIndexes(tableName string, names []string) error {
	t, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	schema := t.schema
	schema.Indexes = names
	if err := schema.validate(); err != nil {
		return err
	}
	old := t.indexes
	t.schema, t.indexes = schema, nil
	var fresh []*index
	for _, name := range names {
		i := slices.IndexFunc(old, func(ix *index) bool { return ix.name == name })
		if i >= 0 {
			t.indexes = append(t.indexes, old[i])
			continue
		}
		ix := newIndex(&t.schema, name)
		t.indexes = append(t.indexes, ix)
		fresh = append(fresh, ix)
	}
	if !t.replaying {
		t.buildIndexes(fresh)
	}
	return nil
}

// InsertCtx adds a new row. Gallery data is immutable, so inserting an
// existing primary key fails with ErrDuplicate rather than overwriting. It
// records a per-table op span plus a WAL-append child when the store is
// durable.
func (s *Store) InsertCtx(ctx context.Context, tableName string, row Row) error {
	ctx, span := trace.Start(ctx, "relstore.insert")
	if span != nil {
		span.Annotate("table", tableName)
	}
	err := s.insertCtx(ctx, tableName, row)
	span.EndErr(err)
	return err
}

func (s *Store) insertCtx(ctx context.Context, tableName string, row Row) error {
	s.countOp("insert", tableName)
	tup, err := s.tuple(tableName, row) // before the lock, not under it
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.applyInsert(tableName, tup); err != nil {
		return err
	}
	return s.logOp(ctx, walOp{Kind: opInsert, Table: tableName, Row: tup})
}

// tuple returns row as the named table keeps it: the store's own copy,
// which the caller's later edits to row do not reach.
func (s *Store) tuple(tableName string, row Row) (Tuple, error) {
	s.mu.RLock()
	t, ok := s.tables[tableName]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	return t.schema.tuple(row) // a table's columns never change
}

// applyInsert validates row and installs it itself, not a copy.
func (s *Store) applyInsert(tableName string, row Tuple) error {
	t, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	pk, err := t.schema.checkTuple(row)
	if err != nil {
		return err
	}
	if _, exists := t.rows[pk]; exists {
		return fmt.Errorf("%w: %s[%s]", ErrDuplicate, tableName, pk)
	}
	t.put(pk, row)
	return nil
}

// Update replaces an existing row identified by its primary key. It fails
// with ErrNotFound for absent rows; Gallery uses updates only for mutable
// operational state such as deprecation flags and dependency pointers.
func (s *Store) Update(ctx context.Context, tableName string, row Row) error {
	ctx, span := trace.Start(ctx, "relstore.update")
	if span != nil {
		span.Annotate("table", tableName)
	}
	err := s.updateCtx(ctx, tableName, row)
	span.EndErr(err)
	return err
}

func (s *Store) updateCtx(ctx context.Context, tableName string, row Row) error {
	s.countOp("update", tableName)
	tup, err := s.tuple(tableName, row)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var logged walOp
	if s.log != nil {
		logged = s.patchOf(walOp{Kind: opUpdate, Table: tableName, Row: tup})
	}
	if err := s.applyUpdate(tableName, tup); err != nil {
		return err
	}
	return s.logOp(ctx, logged)
}

// patchOf returns the patch that logs update op: the row's primary key and
// the cells in which op's row differs from the stored row it replaces, so
// it must be taken before op is applied. An update of a row that is not
// stored comes back unchanged, for applyUpdate to refuse. Only a durable
// store needs one. Callers hold mu.
func (s *Store) patchOf(op walOp) walOp {
	t, ok := s.tables[op.Table]
	if !ok {
		return op
	}
	pk := op.Row[t.schema.Pos(t.schema.Key)].Str
	old, ok := t.rows[pk]
	if !ok {
		return op
	}
	n := 0
	for i, v := range op.Row {
		if v != old[i] {
			n++
		}
	}
	patch := walOp{Kind: opPatch, Table: op.Table, PK: pk}
	if n > 0 {
		patch.Patch = make([]patchCell, 0, n)
		for i, v := range op.Row {
			if v != old[i] {
				patch.Patch = append(patch.Patch, patchCell{i, v})
			}
		}
	}
	return patch
}

// applyPatch installs a copy of the stored row with the patch's cells
// overlaid, through applyUpdate, so the result is checked as any updated
// row is. A patch of a row that is not stored, or one that would change
// the row's key, is refused. The copy shares its strings with the stored
// row and the patch, so a replayed row keeps at most one decoded string
// per string column alive however often it is patched.
func (s *Store) applyPatch(tableName, pk string, cells []patchCell) error {
	t, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	old, ok := t.rows[pk]
	if !ok {
		return fmt.Errorf("%w: %s[%s]", ErrNotFound, tableName, pk)
	}
	row := slices.Clone(old)
	for _, c := range cells {
		row[c.pos] = c.v
	}
	if k := t.schema.Pos(t.schema.Key); row[k] != old[k] {
		return fmt.Errorf("relstore: table %s: patch of %s changes its key", tableName, pk)
	}
	return s.applyUpdate(tableName, row)
}

// applyUpdate validates row and installs it itself, not a copy.
func (s *Store) applyUpdate(tableName string, row Tuple) error {
	t, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	pk, err := t.schema.checkTuple(row)
	if err != nil {
		return err
	}
	old, exists := t.rows[pk]
	if !exists {
		return fmt.Errorf("%w: %s[%s]", ErrNotFound, tableName, pk)
	}
	t.unindex(pk, old)
	t.put(pk, row)
	return nil
}

// Delete removes a row by primary key. Deleting an absent row fails with
// ErrNotFound.
func (s *Store) Delete(ctx context.Context, tableName, pk string) error {
	ctx, span := trace.Start(ctx, "relstore.delete")
	if span != nil {
		span.Annotate("table", tableName)
	}
	err := s.deleteCtx(ctx, tableName, pk)
	span.EndErr(err)
	return err
}

func (s *Store) deleteCtx(ctx context.Context, tableName, pk string) error {
	s.countOp("delete", tableName)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.applyDelete(tableName, pk); err != nil {
		return err
	}
	return s.logOp(ctx, walOp{Kind: opDelete, Table: tableName, PK: pk})
}

func (s *Store) applyDelete(tableName, pk string) error {
	t, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	old, exists := t.rows[pk]
	if !exists {
		return fmt.Errorf("%w: %s[%s]", ErrNotFound, tableName, pk)
	}
	t.unindex(pk, old)
	delete(t.rows, pk)
	if !t.replaying {
		t.pks.Delete(pk)
	}
	return nil
}

// put installs row under pk and, outside replay, maintains pks and all
// indexes. Caller has validated.
func (t *table) put(pk string, row Tuple) {
	t.rows[pk] = row
	if t.replaying {
		return
	}
	t.pks.Insert(pk)
	for _, ix := range t.indexes {
		ix.insert(row, pk)
	}
}

// unindex removes row's postings from all indexes; during replay there are
// none to remove.
func (t *table) unindex(pk string, row Tuple) {
	if t.replaying {
		return
	}
	for _, ix := range t.indexes {
		ix.remove(row, pk)
	}
}

// Mutation is one element of an atomic Batch.
type Mutation struct {
	Kind  MutationKind
	Table string
	Row   Row    // Insert/Update
	PK    string // Delete
}

// MutationKind selects the operation a Mutation performs.
type MutationKind uint8

// Batch mutation kinds.
const (
	MutInsert MutationKind = iota + 1
	MutUpdate
	MutDelete
)

// Batch applies mutations atomically: either all succeed or none are
// applied. It is Gallery's tool for multi-row invariants, e.g. writing a new
// model-instance version together with the dependency-graph rows it bumps
// (paper Figures 6–7). One span covers the whole atomic group (annotated
// with its size), plus the WAL-append child.
func (s *Store) Batch(ctx context.Context, muts []Mutation) error {
	ctx, span := trace.Start(ctx, "relstore.batch")
	if span != nil {
		span.AnnotateInt("mutations", int64(len(muts)))
	}
	err := s.batchCtx(ctx, muts)
	span.EndErr(err)
	return err
}

func (s *Store) batchCtx(ctx context.Context, muts []Mutation) error {
	ops, err := s.batchOps(muts)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Validate every mutation against current state plus the batch's own
	// earlier effects, without mutating, by simulating key presence.
	if err := s.validateBatch(ops); err != nil {
		return err
	}
	for i, op := range ops {
		if op.Kind == opUpdate && s.log != nil {
			ops[i] = s.patchOf(op) // against the row the batch has so far
		}
		if err := s.apply(op); err != nil {
			// validateBatch guarantees this cannot happen; if it does, state
			// may be partially applied and the only safe move is to surface it.
			return fmt.Errorf("relstore: batch apply after validation: %w", err)
		}
	}
	return s.logOp(ctx, walOp{Kind: opBatch, Batch: ops})
}

// batchOps counts each mutation and builds its op, with the store's own
// copy of its row, under the read lock rather than the write lock. It
// refuses an unknown kind and a row naming a column its table lacks; a
// mutation of an unknown table gets an op without a row, which
// validateBatch refuses.
func (s *Store) batchOps(muts []Mutation) ([]walOp, error) {
	ops := make([]walOp, len(muts))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, m := range muts {
		switch m.Kind {
		case MutInsert:
			s.countOp("insert", m.Table)
			ops[i] = walOp{Kind: opInsert, Table: m.Table}
		case MutUpdate:
			s.countOp("update", m.Table)
			ops[i] = walOp{Kind: opUpdate, Table: m.Table}
		case MutDelete:
			s.countOp("delete", m.Table)
			ops[i] = walOp{Kind: opDelete, Table: m.Table, PK: m.PK}
			continue
		default:
			return nil, fmt.Errorf("relstore: batch element %d has unknown kind %d", i, m.Kind)
		}
		if t, ok := s.tables[m.Table]; ok {
			var err error
			if ops[i].Row, err = t.schema.tuple(m.Row); err != nil {
				return nil, fmt.Errorf("batch element %d: %w", i, err)
			}
		}
	}
	return ops, nil
}

// validateBatch checks all mutations, tracking the batch's own inserts and
// deletes so later mutations see earlier ones.
func (s *Store) validateBatch(muts []walOp) error {
	type key struct{ table, pk string }
	// present overlays key existence changes made by the batch itself.
	present := make(map[key]bool)
	exists := func(t *table, tableName, pk string) bool {
		if v, ok := present[key{tableName, pk}]; ok {
			return v
		}
		_, ok := t.rows[pk]
		return ok
	}
	for i, m := range muts {
		t, ok := s.tables[m.Table]
		if !ok {
			return fmt.Errorf("%w: %s (batch element %d)", ErrNoTable, m.Table, i)
		}
		switch m.Kind {
		case opInsert:
			pk, err := t.schema.checkTuple(m.Row)
			if err != nil {
				return fmt.Errorf("batch element %d: %w", i, err)
			}
			if exists(t, m.Table, pk) {
				return fmt.Errorf("%w: %s[%s] (batch element %d)", ErrDuplicate, m.Table, pk, i)
			}
			present[key{m.Table, pk}] = true
		case opUpdate:
			pk, err := t.schema.checkTuple(m.Row)
			if err != nil {
				return fmt.Errorf("batch element %d: %w", i, err)
			}
			if !exists(t, m.Table, pk) {
				return fmt.Errorf("%w: %s[%s] (batch element %d)", ErrNotFound, m.Table, pk, i)
			}
		case opDelete:
			if !exists(t, m.Table, m.PK) {
				return fmt.Errorf("%w: %s[%s] (batch element %d)", ErrNotFound, m.Table, m.PK, i)
			}
			present[key{m.Table, m.PK}] = false
		}
	}
	return nil
}

// Get fetches a row copy by primary key, with a per-table read span when
// the request is sampled (one nil check otherwise).
func (s *Store) Get(ctx context.Context, tableName, pk string) (Row, error) {
	cols, row, err := s.get(ctx, tableName, pk)
	if err != nil {
		return nil, err
	}
	return byName(cols, row), nil
}

// GetTuple is Get returning the row as the store keeps it, its cells in
// schema order: a copy, which shares only the row's strings.
func (s *Store) GetTuple(ctx context.Context, tableName, pk string) (Tuple, error) {
	_, row, err := s.get(ctx, tableName, pk)
	return slices.Clone(row), err
}

// get returns the stored row and its table's columns. A stored row is
// never written once installed (an update installs a new one), so the
// caller may copy it after the lock is released.
func (s *Store) get(ctx context.Context, tableName, pk string) ([]Column, Tuple, error) {
	_, span := trace.Start(ctx, "relstore.get")
	if span != nil {
		span.Annotate("table", tableName)
	}
	cols, row, err := s.lookup(tableName, pk)
	span.EndErr(err)
	return cols, row, err
}

func (s *Store) lookup(tableName, pk string) ([]Column, Tuple, error) {
	s.countOp("get", tableName)
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	row, ok := t.rows[pk]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s[%s]", ErrNotFound, tableName, pk)
	}
	return t.schema.Columns, row, nil
}

// Len returns the number of rows in a table.
func (s *Store) Len(tableName string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	return len(t.rows), nil
}

// Tables lists the names of all tables.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	return names
}
