package relstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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

	replayed, replayedLegacy int // records Open applied; of those, gob-format ones

	obs           *obs.Registry
	walSeconds    *obs.Histogram
	commitSeconds *obs.Histogram
	walRecords    *obs.Counter
	walBytes      *obs.Counter
	walCommits    *obs.Counter
	opMu          sync.RWMutex
	opCounters    map[opKey]*obs.Counter // handle cache: countOp is on every hot path
}

// opKey keys the per-(op, table) counter-handle cache.
type opKey struct{ op, table string }

// Instrument redirects the store's metrics to reg (default obs.Default).
// Call before serving traffic.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = reg
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
	s.opMu.Lock()
	s.opCounters = make(map[opKey]*obs.Counter)
	s.opMu.Unlock()
}

// countOp bumps the per-table operation counter, e.g.
// relstore_ops_total{op="insert",table="instances"}. Handles are cached
// per (op, table) so the hot path is one read-locked map hit and an
// atomic increment — no name formatting or registry traffic.
func (s *Store) countOp(op, tableName string) {
	k := opKey{op, tableName}
	s.opMu.RLock()
	c, ok := s.opCounters[k]
	s.opMu.RUnlock()
	if !ok {
		c = s.obs.Counter(obs.Name("relstore_ops_total", "op", op, "table", tableName))
		s.opMu.Lock()
		s.opCounters[k] = c
		s.opMu.Unlock()
	}
	c.Inc()
}

type table struct {
	schema  Schema
	rows    map[string]Row
	pks     *btree.Tree // ordered primary keys (keyItem) for stable scans
	indexes []*index    // secondary indexes, in Schema.Indexes order
}

// NewMemory returns a volatile in-memory store.
func NewMemory() *Store {
	s := &Store{tables: make(map[string]*table)}
	s.Instrument(nil)
	return s
}

// Open returns a durable store backed by a write-ahead log at path. Existing
// state is replayed; a torn tail from a crash is truncated. Records are read
// in the version 1 format of record.go or, where a daemon older than that
// format wrote them, as gob; everything appended is version 1.
func Open(path string, opts wal.Options) (*Store, error) {
	s := &Store{tables: make(map[string]*table), path: path}
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
// no-op for volatile stores and without wal.Options.Sync.
func (s *Store) Commit() error { return s.CommitCtx(context.Background()) }

// CommitCtx is Commit with trace attribution: the fsync wait gets its own
// span, apart from the appends, and the commit-latency histogram an
// exemplar pointing back at the trace.
func (s *Store) CommitCtx(ctx context.Context) error {
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
	Row     Row    // Insert/Update
	PK      string // Delete
	Batch   []walOp
	Indexes []string // Indexes: the table's new Schema.Indexes
}

type opKind uint8

const (
	opCreateTable opKind = iota + 1
	opInsert
	opUpdate
	opDelete
	opBatch
	opIndexes
)

// logOp persists op if the store is durable.
func (s *Store) logOp(op walOp) error { return s.logOpCtx(context.Background(), op) }

// logOpCtx is logOp with trace attribution: the WAL append gets its own
// child span, and the append-latency histogram an exemplar pointing back
// at the trace. The record is written through to the OS, not fsynced —
// callers hold mu, and the disk wait belongs to Commit.
func (s *Store) logOpCtx(ctx context.Context, op walOp) error {
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
		return s.logOp(walOp{Kind: opIndexes, Table: schema.Table, Indexes: schema.Indexes})
	}
	if err := s.applyCreateTable(schema); err != nil {
		return err
	}
	return s.logOp(walOp{Kind: opCreateTable, Schema: &schema})
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
		schema: schema,
		rows:   make(map[string]Row),
		pks:    btree.New(),
	}
	for _, name := range schema.Indexes {
		t.indexes = append(t.indexes, newIndex(&t.schema, name))
	}
	s.tables[schema.Table] = t
	return nil
}

// applyIndexes replaces a table's index list: an index it already has
// keeps its postings, a new one is built from the rows, a dropped one is
// discarded.
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
	for _, name := range names {
		i := slices.IndexFunc(old, func(ix *index) bool { return ix.name == name })
		if i >= 0 {
			t.indexes = append(t.indexes, old[i])
			continue
		}
		ix := newIndex(&t.schema, name)
		for pk, row := range t.rows {
			ix.insert(row, pk)
		}
		t.indexes = append(t.indexes, ix)
	}
	return nil
}

// Insert adds a new row. Gallery data is immutable, so inserting an existing
// primary key fails with ErrDuplicate rather than overwriting.
func (s *Store) Insert(tableName string, row Row) error {
	return s.InsertCtx(context.Background(), tableName, row)
}

// InsertCtx is Insert with trace attribution: a per-table op span plus a
// WAL-append child when the store is durable.
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
	row = row.Clone() // the caller keeps theirs; copied before the lock, not under it
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.applyInsert(tableName, row); err != nil {
		return err
	}
	return s.logOpCtx(ctx, walOp{Kind: opInsert, Table: tableName, Row: row})
}

// applyInsert installs row itself, not a copy.
func (s *Store) applyInsert(tableName string, row Row) error {
	t, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	pk, err := t.schema.checkRow(row)
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
func (s *Store) Update(tableName string, row Row) error {
	return s.UpdateCtx(context.Background(), tableName, row)
}

// UpdateCtx is Update with trace attribution.
func (s *Store) UpdateCtx(ctx context.Context, tableName string, row Row) error {
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
	row = row.Clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.applyUpdate(tableName, row); err != nil {
		return err
	}
	return s.logOpCtx(ctx, walOp{Kind: opUpdate, Table: tableName, Row: row})
}

// applyUpdate installs row itself, not a copy.
func (s *Store) applyUpdate(tableName string, row Row) error {
	t, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	pk, err := t.schema.checkRow(row)
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
func (s *Store) Delete(tableName, pk string) error {
	return s.DeleteCtx(context.Background(), tableName, pk)
}

// DeleteCtx is Delete with trace attribution.
func (s *Store) DeleteCtx(ctx context.Context, tableName, pk string) error {
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
	return s.logOpCtx(ctx, walOp{Kind: opDelete, Table: tableName, PK: pk})
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
	t.pks.Delete(keyItem(pk))
	return nil
}

// put installs row under pk and maintains all indexes. Caller has validated.
func (t *table) put(pk string, row Row) {
	t.rows[pk] = row
	t.pks.ReplaceOrInsert(keyItem(pk))
	for _, ix := range t.indexes {
		ix.insert(row, pk)
	}
}

// unindex removes row's postings from all indexes.
func (t *table) unindex(pk string, row Row) {
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
// (paper Figures 6–7).
func (s *Store) Batch(muts []Mutation) error {
	return s.BatchCtx(context.Background(), muts)
}

// BatchCtx is Batch with trace attribution: one span covering the whole
// atomic group (annotated with its size) plus the WAL-append child.
func (s *Store) BatchCtx(ctx context.Context, muts []Mutation) error {
	ctx, span := trace.Start(ctx, "relstore.batch")
	if span != nil {
		span.AnnotateInt("mutations", int64(len(muts)))
	}
	err := s.batchCtx(ctx, muts)
	span.EndErr(err)
	return err
}

func (s *Store) batchCtx(ctx context.Context, muts []Mutation) error {
	// The ops, with the store's own copy of each row, are built before the
	// lock is taken; an unknown kind stays a zero op and validateBatch
	// refuses the batch before anything is applied.
	ops := make([]walOp, len(muts))
	for i, m := range muts {
		switch m.Kind {
		case MutInsert:
			s.countOp("insert", m.Table)
			ops[i] = walOp{Kind: opInsert, Table: m.Table, Row: m.Row.Clone()}
		case MutUpdate:
			s.countOp("update", m.Table)
			ops[i] = walOp{Kind: opUpdate, Table: m.Table, Row: m.Row.Clone()}
		case MutDelete:
			s.countOp("delete", m.Table)
			ops[i] = walOp{Kind: opDelete, Table: m.Table, PK: m.PK}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Validate every mutation against current state plus the batch's own
	// earlier effects, without mutating, by simulating key presence.
	if err := s.validateBatch(muts); err != nil {
		return err
	}
	for _, op := range ops {
		if err := s.apply(op); err != nil {
			// validateBatch guarantees this cannot happen; if it does, state
			// may be partially applied and the only safe move is to surface it.
			return fmt.Errorf("relstore: batch apply after validation: %w", err)
		}
	}
	return s.logOpCtx(ctx, walOp{Kind: opBatch, Batch: ops})
}

// validateBatch checks all mutations, tracking the batch's own inserts and
// deletes so later mutations see earlier ones.
func (s *Store) validateBatch(muts []Mutation) error {
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
		case MutInsert:
			pk, err := t.schema.checkRow(m.Row)
			if err != nil {
				return fmt.Errorf("batch element %d: %w", i, err)
			}
			if exists(t, m.Table, pk) {
				return fmt.Errorf("%w: %s[%s] (batch element %d)", ErrDuplicate, m.Table, pk, i)
			}
			present[key{m.Table, pk}] = true
		case MutUpdate:
			pk, err := t.schema.checkRow(m.Row)
			if err != nil {
				return fmt.Errorf("batch element %d: %w", i, err)
			}
			if !exists(t, m.Table, pk) {
				return fmt.Errorf("%w: %s[%s] (batch element %d)", ErrNotFound, m.Table, pk, i)
			}
		case MutDelete:
			if !exists(t, m.Table, m.PK) {
				return fmt.Errorf("%w: %s[%s] (batch element %d)", ErrNotFound, m.Table, m.PK, i)
			}
			present[key{m.Table, m.PK}] = false
		default:
			return fmt.Errorf("relstore: batch element %d has unknown kind %d", i, m.Kind)
		}
	}
	return nil
}

// Get fetches a row copy by primary key.
func (s *Store) Get(tableName, pk string) (Row, error) {
	return s.GetCtx(context.Background(), tableName, pk)
}

// GetCtx is Get with trace attribution (a per-table read span when the
// request is sampled; one nil check otherwise).
func (s *Store) GetCtx(ctx context.Context, tableName, pk string) (Row, error) {
	_, span := trace.Start(ctx, "relstore.get")
	if span != nil {
		span.Annotate("table", tableName)
	}
	row, err := s.get(tableName, pk)
	span.EndErr(err)
	return row, err
}

func (s *Store) get(tableName, pk string) (Row, error) {
	s.countOp("get", tableName)
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	row, ok := t.rows[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s[%s]", ErrNotFound, tableName, pk)
	}
	return row.Clone(), nil
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
