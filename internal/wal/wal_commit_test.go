package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func openSync(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{Sync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

// TestAppendNoSyncThenCommit pins the split: an append moves Size and
// leaves Durable behind; Commit closes the gap with one fsync, and a
// second Commit with nothing outstanding issues none.
func TestAppendNoSyncThenCommit(t *testing.T) {
	l, _ := openSync(t)
	if l.Size() != 0 || l.Durable() != 0 {
		t.Fatalf("fresh log size %d durable %d, want 0 0", l.Size(), l.Durable())
	}
	for i := 0; i < 3; i++ {
		if err := l.AppendNoSync([]byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Durable() != 0 || l.Size() == 0 {
		t.Fatalf("after appends size %d durable %d, want durable 0 behind size", l.Size(), l.Durable())
	}
	if synced, err := l.CommitSynced(); err != nil || !synced {
		t.Fatalf("Commit over 3 outstanding records: synced %v, err %v", synced, err)
	}
	if l.Durable() != l.Size() {
		t.Fatalf("after Commit durable %d, size %d", l.Durable(), l.Size())
	}
	if synced, err := l.CommitSynced(); err != nil || synced {
		t.Fatalf("Commit with nothing outstanding: synced %v, err %v", synced, err)
	}
}

// TestAppendStillDurableOnReturn keeps Append's contract: with Sync, the
// record is fsynced when it returns.
func TestAppendStillDurableOnReturn(t *testing.T) {
	l, _ := openSync(t)
	for i := 1; i <= 4; i++ {
		if err := l.Append([]byte("synced")); err != nil {
			t.Fatal(err)
		}
		if l.Durable() != l.Size() {
			t.Fatalf("append %d: durable %d behind size %d on return", i, l.Durable(), l.Size())
		}
	}
}

// TestConcurrentCommittersShareFsyncs: K goroutines append, meet, then all
// Commit. Whoever gets the fsync lock first syncs past every record, so
// the others find themselves covered: fewer than K fsyncs — here exactly
// one, because every append precedes every Commit.
func TestConcurrentCommittersShareFsyncs(t *testing.T) {
	const k = 16
	l, _ := openSync(t)
	var fsyncs atomic.Int64
	var appended, done sync.WaitGroup
	appended.Add(k)
	done.Add(k)
	for i := 0; i < k; i++ {
		go func() {
			defer done.Done()
			err := l.AppendNoSync([]byte("concurrent"))
			appended.Done()
			if err != nil {
				t.Error(err)
				return
			}
			appended.Wait()
			synced, err := l.CommitSynced()
			if err != nil {
				t.Error(err)
			}
			if synced {
				fsyncs.Add(1)
			}
			if l.Durable() < l.Size() {
				t.Errorf("Commit returned with durable %d behind size %d", l.Durable(), l.Size())
			}
		}()
	}
	done.Wait()
	if got := fsyncs.Load(); got != 1 {
		t.Fatalf("%d concurrent committers issued %d fsyncs, want 1", k, got)
	}
}

// TestInterleavedWritersAlwaysCovered runs append+Commit loops from many
// goroutines with no barrier: however the fsyncs get shared, a Commit must
// never return before the caller's own record is durable.
func TestInterleavedWritersAlwaysCovered(t *testing.T) {
	const writers, rounds = 8, 25
	l, _ := openSync(t)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := l.AppendNoSync([]byte("interleaved")); err != nil {
					t.Error(err)
					return
				}
				mine := l.Size() // at or past the end of this goroutine's record
				if err := l.Commit(); err != nil {
					t.Error(err)
					return
				}
				if d := l.Durable(); d < mine {
					t.Errorf("Commit returned with durable %d, own record ends by %d", d, mine)
				}
			}
		}()
	}
	wg.Wait()
	if l.Durable() != l.Size() {
		t.Fatalf("quiesced with durable %d, size %d", l.Durable(), l.Size())
	}
}

func TestCommitAfterCloseIsErrClosed(t *testing.T) {
	for _, sync := range []bool{true, false} {
		l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{Sync: sync}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Sync=%v: Commit after Close = %v, want ErrClosed", sync, err)
		}
		if err := l.AppendNoSync([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Sync=%v: AppendNoSync after Close = %v, want ErrClosed", sync, err)
		}
	}
}

// TestCommitNoOpWithoutSync: without Options.Sync nothing is ever fsynced
// and Durable never advances — -fsync stays the only switch.
func TestCommitNoOpWithoutSync(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("unsynced")); err != nil {
			t.Fatal(err)
		}
		if synced, err := l.CommitSynced(); err != nil || synced {
			t.Fatalf("no-Sync Commit: synced %v, err %v", synced, err)
		}
	}
	if l.Durable() != 0 {
		t.Fatalf("no-Sync log reports %d bytes durable", l.Durable())
	}
}

// TestCloseCommitsOutstanding: a graceful Close must not strand appended
// records short of the disk.
func TestCloseCommitsOutstanding(t *testing.T) {
	l, path := openSync(t)
	if err := l.AppendNoSync([]byte("late")); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Durable() != size {
		t.Fatalf("Close left durable %d, size %d", l.Durable(), size)
	}
	// Reopening a Sync log settles the replayed prefix before anything
	// is acknowledged on top of it.
	l2, err := Open(path, Options{Sync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Durable() != size || l2.Size() != size {
		t.Fatalf("reopened durable %d size %d, want %d", l2.Durable(), l2.Size(), size)
	}
}

// TestTruncateAtDurableKeepsCommitted is the power-loss model at the unit
// level: cut the file at Durable and every committed record replays, the
// appended-but-uncommitted one does not.
func TestTruncateAtDurableKeepsCommitted(t *testing.T) {
	l, path := openSync(t)
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("committed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendNoSync([]byte("in flight")); err != nil {
		t.Fatal(err)
	}
	cut := l.Durable()
	if err := l.Close(); err != nil { // Close would commit the straggler: cut where the watermark stood
		t.Fatal(err)
	}
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	var got []string
	l2, err := Open(path, Options{}, func(p []byte) error { got = append(got, string(p)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %q after cutting at Durable, want the 3 committed records", got)
	}
}
