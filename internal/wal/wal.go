// Package wal implements a write-ahead log used by the relational metadata
// store for durability.
//
// The paper's Gallery stores metadata in MySQL, which is durable and
// crash-recoverable; this reproduction's embedded metadata store gets the
// same property from a length- and CRC-framed append-only log. Records are
// opaque byte payloads. On recovery the log is replayed until the first
// corrupt or torn record, and the file is truncated there so appends can
// resume from a clean tail — the standard behaviour of production WALs.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Record framing: 4-byte little-endian payload length, 4-byte CRC32C of the
// payload, then the payload bytes.
const headerSize = 8

// maxRecordSize guards against interpreting a corrupt length field as a
// multi-gigabyte allocation during recovery.
const maxRecordSize = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Log is an append-only record log. It is safe for concurrent use.
//
// Appending and making durable are separate steps. AppendNoSync writes a
// frame through to the OS; Commit makes everything appended before the
// call durable, and concurrent committers share one fsync: size is the
// write watermark, durable the fsynced one, and a committer whose target
// another caller's fsync already covered returns without issuing its own.
type Log struct {
	// syncMu serializes fsyncs and is taken before mu; it is never held
	// by an appender, so appends proceed while an fsync is in flight.
	syncMu sync.Mutex

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	size    int64 // bytes written through to the OS
	durable int64 // prefix known fsynced (Sync logs only)
	err     error // first fsync failure; sticky
	closed  bool
	sync    bool
}

// Options configures a Log.
type Options struct {
	// Sync makes Commit (and therefore Append) fsync, so committed records
	// survive OS crashes and power loss rather than just process crashes.
	// Without it Commit is a no-op.
	Sync bool
}

// Open opens (creating if necessary) the log at path, replays all intact
// records through apply, truncates any torn tail, and returns a Log
// positioned for appending. apply may be nil when the caller only appends.
// The payload handed to apply is a buffer replay reuses for the next record:
// apply must copy whatever it keeps and must not retain the slice.
func Open(path string, opts Options, apply func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	valid, err := replay(f, apply)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	l := &Log{f: f, w: bufio.NewWriter(f), size: valid, sync: opts.Sync}
	if opts.Sync {
		// The replayed prefix may have been written by a process that died
		// before committing it, and a just-created file is not on disk
		// until its directory entry is: settle both once, so Durable starts
		// out true.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: fsync %s: %w", path, err)
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
		l.durable = valid
	}
	return l, nil
}

// syncDir fsyncs a directory, making a file creation or rename in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir %s: %w", dir, err)
	}
	return nil
}

// replay streams records from the start of f, calling apply for each intact
// record, and returns the offset of the first byte past the last intact
// record. A short header, short payload, oversized length, or CRC mismatch
// ends replay without error: it marks a torn write from a crash. Every
// record is read into one buffer, grown to the largest record seen.
func replay(f *os.File, apply func([]byte) error) (valid int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("wal: seek for replay: %w", err)
	}
	r := bufio.NewReader(f)
	var (
		hdr [headerSize]byte
		buf []byte
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return valid, nil
			}
			return 0, fmt.Errorf("wal: read header: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecordSize {
			return valid, nil // corrupt length: treat as torn tail
		}
		if cap(buf) < int(n) {
			buf = make([]byte, max(int(n), 2*cap(buf)))
		}
		payload := buf[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return valid, nil
			}
			return 0, fmt.Errorf("wal: read payload: %w", err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return valid, nil // corrupt payload: torn tail
		}
		if apply != nil {
			if err := apply(payload); err != nil {
				return 0, fmt.Errorf("wal: apply record: %w", err)
			}
		}
		valid += headerSize + int64(n)
	}
}

// Append adds one record to the log and commits it: with Options.Sync the
// record is on disk when Append returns.
func (l *Log) Append(payload []byte) error {
	if err := l.AppendNoSync(payload); err != nil {
		return err
	}
	return l.Commit()
}

// AppendNoSync adds one record to the log, written through to the OS (it
// survives a process crash) but not fsynced; Commit makes it durable.
func (l *Log) AppendNoSync(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append header: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: append payload: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	l.size += headerSize + int64(len(payload))
	return nil
}

// Commit makes every record appended before the call durable. Callers
// that arrive while an fsync is in flight wait for it and then share the
// next one, so K concurrent committers cost fewer than K fsyncs. Without
// Options.Sync it only reports ErrClosed. An fsync failure is sticky: the
// kernel may have dropped the dirty pages, so a later fsync succeeding
// would prove nothing, and every later Commit and append fails with it.
func (l *Log) Commit() error {
	_, err := l.CommitSynced()
	return err
}

// CommitSynced is Commit, also reporting whether this call issued the
// fsync itself (true) or had nothing outstanding or was covered by another
// caller's (false): records appended over trues counted is the coalescing.
func (l *Log) CommitSynced() (bool, error) {
	l.mu.Lock()
	target := l.size
	done, err := l.settledLocked(target)
	l.mu.Unlock()
	if done {
		return false, err
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	done, err = l.settledLocked(target) // the fsync we waited behind may have covered us
	upto := l.size
	l.mu.Unlock()
	if done {
		return false, err
	}

	err = l.f.Sync()

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return true, l.err
	}
	l.durable = upto
	return true, nil
}

// settledLocked reports whether a commit up to target has nothing left to
// wait for, and the error it should return if so. Caller holds mu.
func (l *Log) settledLocked(target int64) (bool, error) {
	switch {
	case l.closed:
		return true, ErrClosed
	case l.err != nil:
		return true, l.err
	case !l.sync || l.durable >= target:
		return true, nil
	}
	return false, nil
}

// Size returns the byte size of the log's intact prefix.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Durable returns the byte size of the prefix known to be fsynced: what a
// power loss now is guaranteed to leave behind. It trails Size between an
// append and the Commit that covers it, and never advances without
// Options.Sync.
func (l *Log) Durable() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Close commits what is outstanding and closes the underlying file.
func (l *Log) Close() error {
	l.syncMu.Lock() // wait out an in-flight fsync
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: flush on close: %w", err)
	}
	if l.sync && l.err == nil && l.durable < l.size {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return fmt.Errorf("wal: fsync on close: %w", err)
		}
		l.durable = l.size
	}
	return l.f.Close()
}
