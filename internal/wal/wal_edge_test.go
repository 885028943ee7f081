package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenApplyErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("apply failed")
	if _, err := Open(path, Options{}, func([]byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Open with failing apply = %v, want wrapped apply error", err)
	}
}

func TestOpenOnDirectoryFails(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, Options{}, nil); err == nil {
		t.Fatal("Open on a directory succeeded")
	}
}

func TestOversizedLengthTreatedAsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path, Options{}, nil)
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a header claiming a multi-GB payload.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	count := 0
	l2, err := Open(path, Options{}, func([]byte) error { count++; return nil })
	if err != nil {
		t.Fatalf("recovery from oversized length failed: %v", err)
	}
	defer l2.Close()
	if count != 1 {
		t.Fatalf("replayed %d records, want 1 (oversized header truncated)", count)
	}
	// The torn header must be gone so appends land cleanly.
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
}

func TestSyncOptionAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{Sync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte("synced")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	l2, err := Open(path, Options{}, func([]byte) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if count != 5 {
		t.Fatalf("replayed %d, want 5", count)
	}
}

// TestReplayReusesOnePayloadBuffer pins both halves of Open's contract with
// apply: the payload is only valid during the call (a callback that keeps
// the slice sees it overwritten), and in exchange replay does not allocate
// per record.
func TestReplayReusesOnePayloadBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const records = 512
	for i := 0; i < records; i++ {
		rec := make([]byte, 64+i%64) // sizes go up and down: growth must not shrink or reorder anything
		binary.LittleEndian.PutUint32(rec, uint32(i))
		if err := l.AppendNoSync(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var kept [][]byte
	next := uint32(0)
	l, err = Open(path, Options{}, func(p []byte) error {
		if got := binary.LittleEndian.Uint32(p); got != next || len(p) != 64+int(next)%64 {
			t.Fatalf("record %d replayed as %d, %d bytes", next, got, len(p))
		}
		next++
		kept = append(kept, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	stale := 0
	for i, p := range kept {
		if binary.LittleEndian.Uint32(p) != uint32(i) {
			stale++
		}
	}
	if stale < records/2 {
		t.Fatalf("only %d of %d retained payloads were overwritten: replay is not reusing its buffer", stale, records)
	}

	allocs := testing.AllocsPerRun(5, func() {
		l, err := Open(path, Options{}, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	})
	if allocs > records/8 {
		t.Fatalf("replaying %d records allocates %v times", records, allocs)
	}
}
