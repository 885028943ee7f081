package relstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gallery/internal/obs"
	"gallery/internal/wal"
)

func openSyncStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "meta.wal")
	s, err := Open(path, wal.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.CreateTable(modelsSchema()); err != nil {
		t.Fatal(err)
	}
	return s, path
}

// TestMutatorsDoNotWaitForDisk pins the split at the store: a mutation
// returns with its record written but not durable, Commit closes the gap,
// and the metrics an operator reads the coalescing from count both sides.
func TestMutatorsDoNotWaitForDisk(t *testing.T) {
	s, _ := openSyncStore(t)
	if err := s.Commit(context.Background()); err != nil { // the CreateTable record
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg)
	for i := 0; i < 4; i++ {
		if err := s.InsertCtx(context.Background(), "instances", row(fmt.Sprintf("i%d", i), "b", "sf", t0, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.LogDurable() >= s.LogSize() {
		t.Fatalf("inserts waited for the disk: durable %d size %d", s.LogDurable(), s.LogSize())
	}
	if err := s.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.LogDurable() != s.LogSize() {
		t.Fatalf("after Commit durable %d, size %d", s.LogDurable(), s.LogSize())
	}
	if err := s.Commit(context.Background()); err != nil { // nothing outstanding: not a commit an operator should count
		t.Fatal(err)
	}
	if r, c := reg.Counter("relstore_wal_records_total").Value(), reg.Counter("relstore_wal_commits_total").Value(); r != 4 || c != 1 {
		t.Fatalf("records %d commits %d, want 4 and 1", r, c)
	}
	if n := reg.Histogram("relstore_wal_commit_seconds", obs.LatencyBuckets).Count(); n != 1 {
		t.Fatalf("commit histogram has %d observations, want 1", n)
	}
}

// TestCommitNoOpOnVolatileAndUnsynced: -fsync stays the only switch.
func TestCommitNoOpOnVolatileAndUnsynced(t *testing.T) {
	if err := NewMemory().Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, err := Open(filepath.Join(t.TempDir(), "meta.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	if err := s.CreateTable(modelsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.LogDurable() != 0 || reg.Counter("relstore_wal_commits_total").Value() != 0 {
		t.Fatalf("unsynced store committed: durable %d", s.LogDurable())
	}
}

// TestCompactKeepsSyncOption is the regression test for the swap that
// reopened the log with wal.Options{}: after compacting a Sync store, a
// write followed by Commit must still be reported durable, and cutting the
// file at that watermark must keep it.
func TestCompactKeepsSyncOption(t *testing.T) {
	s, path := openSyncStore(t)
	for i := 0; i < 20; i++ {
		if err := s.InsertCtx(context.Background(), "instances", row(fmt.Sprintf("i%02d", i), "b", "sf", t0, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(path); err != nil {
		t.Fatal(err)
	}
	if s.LogDurable() != s.LogSize() {
		t.Fatalf("compacted log not durable: durable %d size %d", s.LogDurable(), s.LogSize())
	}
	if err := s.InsertCtx(context.Background(), "instances", row("post", "b", "sf", t0, 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.LogDurable() != s.LogSize() || s.LogDurable() == 0 {
		t.Fatalf("after compaction Commit no longer fsyncs: durable %d size %d", s.LogDurable(), s.LogSize())
	}
	cut := s.LogDurable()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.Len("instances"); n != 21 {
		t.Fatalf("recovered %d rows from the durable prefix, want 21", n)
	}
}

// TestCommitRacesCompact: committers read the log under the store lock and
// follow it across the swap, so none reports a closed log for records the
// snapshot carried over. Run under -race.
func TestCommitRacesCompact(t *testing.T) {
	s, path := openSyncStore(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := s.InsertCtx(context.Background(), "instances", row(fmt.Sprintf("w%d-%02d", w, i), "b", "sf", t0, 0.1)); err != nil {
					t.Error(err)
					return
				}
				if err := s.Commit(context.Background()); err != nil {
					t.Errorf("Commit across compaction: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		if err := s.Compact(path); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := s.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.LogDurable() != s.LogSize() {
		t.Fatalf("durable %d size %d", s.LogDurable(), s.LogSize())
	}
	if n, _ := s.Len("instances"); n != 120 {
		t.Fatalf("rows = %d, want 120", n)
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	s, _ := openSyncStore(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(context.Background()); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Commit after Close = %v, want wal.ErrClosed", err)
	}
}
