package relstore

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"gallery/internal/wal"
)

// Compact rewrites the store's write-ahead log as a snapshot of current
// state, bounding recovery time and disk use for long-lived deployments
// (Gallery's MySQL gets this from its own checkpointing; the embedded
// store needs it explicitly). The snapshot is written to a sibling file
// and atomically renamed over the live log, so a crash during compaction
// leaves either the old or the new log intact, never a mix. The new log
// keeps the options the store was opened with: under wal.Options.Sync the
// snapshot is fsynced before the rename, and the reopen fsyncs the
// directory, so no later acknowledgement can rest on a rename that a power
// loss would undo. Every record of the snapshot is in the version 1 format,
// so compacting is also what upgrades a log that still holds gob records.
//
// A snapshot file left behind by a compaction that died before its rename
// is discarded, not appended to. If the swap itself fails after the live
// log was closed for it, the log is reopened where Open found it — that
// file is untouched — before the error is returned, so the store stays
// writable; only if that reopen fails too is it left without a log, and
// every later mutation then fails with wal.ErrClosed.
//
// Compact is only meaningful for durable stores; on a volatile store it is
// a no-op.
func (s *Store) Compact(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}

	tmp := path + ".compact"
	if err := os.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("relstore: remove stale compaction log: %w", err)
	}
	newLog, err := wal.Open(tmp, s.walOpts, nil)
	if err != nil {
		return fmt.Errorf("relstore: open compaction log: %w", err)
	}
	cleanup := func() {
		newLog.Close()
		os.Remove(tmp)
	}

	// Deterministic table order for reproducible snapshots.
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)

	appendOp := func(op walOp) error {
		rec, err := s.encodeRecord(op)
		if err != nil {
			return err
		}
		return newLog.AppendNoSync(rec)
	}
	for _, name := range names {
		t := s.tables[name]
		schema := t.schema
		if err := appendOp(walOp{Kind: opCreateTable, Schema: &schema}); err != nil {
			cleanup()
			return err
		}
		// Emit rows in primary-key order.
		var iterErr error
		t.scanAll(false, func(row Row) bool {
			if err := appendOp(walOp{Kind: opInsert, Table: name, Row: row}); err != nil {
				iterErr = err
				return false
			}
			return true
		})
		if iterErr != nil {
			cleanup()
			return iterErr
		}
	}

	// Swap: close both logs (Close commits the snapshot), rename, reopen.
	if err := newLog.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("relstore: close compaction log: %w", err)
	}
	if err := s.log.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("relstore: close live log: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		err = fmt.Errorf("relstore: swap compacted log: %w", err)
		live, openErr := wal.Open(s.path, s.walOpts, nil)
		if openErr != nil {
			return errors.Join(err, fmt.Errorf("relstore: reopen live log: %w", openErr))
		}
		s.log = live
		return err
	}
	reopened, err := wal.Open(path, s.walOpts, nil)
	if err != nil {
		return fmt.Errorf("relstore: reopen after compaction: %w", err)
	}
	s.log, s.path = reopened, path
	return nil
}

// LogSize returns the byte size of the store's write-ahead log, or 0 for
// volatile stores. Operators use it to decide when to Compact.
func (s *Store) LogSize() int64 {
	if l := s.wal(); l != nil {
		return l.Size()
	}
	return 0
}

// LogDurable returns the byte size of the log prefix known to be fsynced
// (see wal.Log.Durable), or 0 for volatile stores. After a Commit on a
// wal.Options.Sync store it equals LogSize unless a writer has raced in.
func (s *Store) LogDurable() int64 {
	if l := s.wal(); l != nil {
		return l.Durable()
	}
	return 0
}
