// Package blobstore simulates the distributed object store (S3/HDFS at
// Uber) that Gallery uses for model-instance blobs.
//
// Gallery treats every model instance as an uninterpreted binary blob
// (paper §3.3.2) stored in a large-data service, with only the blob's
// location kept in metadata. This package reproduces the properties that
// matter to Gallery's design:
//
//   - opaque put/get/delete keyed by caller-chosen names, returning
//     location strings that go into metadata;
//   - replication across N independent backends;
//   - end-to-end checksums so corrupt replicas are detected and skipped;
//   - a latency model so experiments can account for blob-store round
//     trips without real network I/O; and
//   - deterministic fault injection, which the DAL consistency experiments
//     (paper §3.5: "we always write model blobs first") rely on.
package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"gallery/internal/obs"
)

// Sentinel errors.
var (
	ErrNotFound = errors.New("blobstore: blob not found")
	ErrCorrupt  = errors.New("blobstore: blob failed checksum verification")
	ErrBadLoc   = errors.New("blobstore: malformed location")
)

// OpKind identifies an operation for fault injection.
type OpKind uint8

// Operations visible to fault hooks.
const (
	OpPut OpKind = iota + 1
	OpGet
	OpDelete
)

// FaultHook, when non-nil, is consulted before every per-replica operation;
// returning an error makes that operation fail. Hooks enable deterministic
// crash and partial-failure experiments.
type FaultHook func(op OpKind, replica int, key string) error

// LatencyModel charges simulated time per operation. The charge is recorded
// in Stats; it is only slept when Sleep is true, so benchmarks can model a
// remote store without wall-clock cost.
type LatencyModel struct {
	Base  time.Duration // per operation
	PerKB time.Duration // per KiB transferred
	Sleep bool
}

// cost computes the simulated charge for an operation without sleeping —
// used both by charge and by trace attribution.
func (m LatencyModel) cost(bytes int) time.Duration {
	return m.Base + time.Duration(bytes/1024)*m.PerKB
}

func (m LatencyModel) charge(bytes int) time.Duration {
	d := m.cost(bytes)
	if m.Sleep && d > 0 {
		time.Sleep(d)
	}
	return d
}

// Options configures a Store.
type Options struct {
	// Replicas is the number of independent backends (default 3).
	Replicas int
	// Latency models per-operation cost.
	Latency LatencyModel
	// Hook injects faults; nil disables injection.
	Hook FaultHook
}

// Stats counts store activity. Latency is the total simulated time charged.
type Stats struct {
	Puts, Gets, Deletes int64
	BytesIn, BytesOut   int64
	CorruptSkips        int64
	Latency             time.Duration
	// What the store holds: live blobs, their bytes (one copy), and the
	// bytes of overwritten or deleted blobs a disk store still keeps.
	Blobs, LiveBytes, DeadBytes int64
	// What opening a disk store did: legacy per-blob files imported, and
	// whether it rewrote the store into a new generation.
	Imported  int64
	Compacted bool
}

// backend holds every replica's copy of every blob. put writes all of
// them or, failing on any replica, leaves nothing of the new copy
// visible; read returns one replica's copy and the checksum it was put
// with, or ErrNotFound when that replica lacks it; keys is sorted.
type backend interface {
	put(key string, data []byte, sum uint32, hook FaultHook) error
	read(replica int, key string) (data []byte, sum uint32, err error)
	remove(key string) error
	keys() []string
	corrupt(replica int, key string) error
	footprint() (blobs int, live, dead int64)
	close() error
}

// fault consults hook, if any, before an operation on one replica.
func fault(hook FaultHook, op OpKind, replica int, key string) error {
	if hook == nil {
		return nil
	}
	return hook(op, replica, key)
}

func replicaErr(op, key string, replica int, err error) error {
	return fmt.Errorf("blobstore: %s %s replica %d: %w", op, key, replica, err)
}

// Store is a replicated blob store. It is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	b      backend
	opts   Options
	stats  Stats
	scheme string
	mx     storeMetrics
}

// storeMetrics holds the obs handles for one store. Latency histograms
// include time spent on injected failures, so fault-heavy experiments
// show up in the tail.
type storeMetrics struct {
	putSeconds, getSeconds, delSeconds *obs.Histogram
	putErrors, getErrors, delErrors    *obs.Counter
	corruptSkips                       *obs.Counter
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	if reg == nil {
		reg = obs.Default
	}
	op := []string{"op"}
	seconds := reg.HistogramVec("blobstore_op_seconds", op, obs.LatencyBuckets, 0)
	errs := reg.CounterVec("blobstore_op_errors_total", op, 0)
	return storeMetrics{
		putSeconds:   seconds.With("put"),
		getSeconds:   seconds.With("get"),
		delSeconds:   seconds.With("delete"),
		putErrors:    errs.With("put"),
		getErrors:    errs.With("get"),
		delErrors:    errs.With("delete"),
		corruptSkips: reg.Counter("blobstore_corrupt_skips_total"),
	}
}

// Instrument redirects the store's metrics to reg (default obs.Default).
// Call before serving traffic.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mx = newStoreMetrics(reg)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// NewMemory returns a Store with in-memory replicas.
func NewMemory(opts Options) *Store {
	opts = normalize(opts)
	b := &memBackend{blobs: map[string]memBlob{}, replicas: opts.Replicas}
	return &Store{b: b, opts: opts, scheme: "mem", mx: newStoreMetrics(nil)}
}

// NewDisk opens (creating if necessary) the Store kept in dir: one
// append-only volume per replica behind one index (see volume.go).
func NewDisk(dir string, opts Options) (*Store, error) {
	opts = normalize(opts)
	b, opened, err := openDisk(dir, opts.Replicas)
	if err != nil {
		return nil, err
	}
	return &Store{b: b, opts: opts, stats: opened, scheme: "disk", mx: newStoreMetrics(nil)}, nil
}

func normalize(opts Options) Options {
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	return opts
}

// validKey reports whether key can name a blob: non-empty, without path
// separators.
func validKey(key string) bool { return key != "" && !strings.ContainsAny(key, "/\\") }

// Put stores data under key on every replica and returns its location.
// A failure on any replica fails the put and leaves no copy visible:
// Gallery prefers a clean failure it can retry over a blob it cannot
// trust to be durable.
func (s *Store) Put(key string, data []byte) (string, error) {
	start := time.Now()
	if !validKey(key) {
		return "", fmt.Errorf("blobstore: invalid key %q", key)
	}
	sum := crc32.Checksum(data, crcTable)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.mx.putSeconds.ObserveSince(start)
	if err := s.b.put(key, data, sum, s.opts.Hook); err != nil {
		s.mx.putErrors.Inc()
		return "", err
	}
	s.stats.Puts++
	s.stats.BytesIn += int64(len(data))
	s.stats.Latency += s.opts.Latency.charge(len(data) * s.opts.Replicas)
	return s.location(key), nil
}

// location renders the stable location string stored in Gallery metadata.
func (s *Store) location(key string) string { return s.scheme + "://gallery/" + key }

// Key extracts the blob key from a location produced by this store.
func (s *Store) Key(location string) (string, error) {
	prefix := s.scheme + "://gallery/"
	if !strings.HasPrefix(location, prefix) || len(location) == len(prefix) {
		return "", fmt.Errorf("%w: %q", ErrBadLoc, location)
	}
	return location[len(prefix):], nil
}

// Get retrieves the blob at location, trying replicas in order and skipping
// any that are missing or corrupt.
func (s *Store) Get(location string) ([]byte, error) {
	start := time.Now()
	key, err := s.Key(location)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.mx.getSeconds.ObserveSince(start)
	lastErr := ErrNotFound
	for i := 0; i < s.opts.Replicas; i++ {
		if err := fault(s.opts.Hook, OpGet, i, key); err != nil {
			lastErr = err
			continue
		}
		data, sum, err := s.b.read(i, key)
		if err != nil {
			lastErr = err
			continue
		}
		if crc32.Checksum(data, crcTable) != sum {
			s.stats.CorruptSkips++
			s.mx.corruptSkips.Inc()
			lastErr = ErrCorrupt
			continue
		}
		s.stats.Gets++
		s.stats.BytesOut += int64(len(data))
		s.stats.Latency += s.opts.Latency.charge(len(data))
		return data, nil
	}
	s.mx.getErrors.Inc()
	return nil, fmt.Errorf("blobstore: get %s: %w", key, lastErr)
}

// Delete removes the blob from every replica; a blob absent everywhere is
// ErrNotFound. Every replica's fault hook runs first, so a failed delete
// removes nothing.
func (s *Store) Delete(location string) error {
	start := time.Now()
	key, err := s.Key(location)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.mx.delSeconds.ObserveSince(start)
	for i := 0; i < s.opts.Replicas && err == nil; i++ {
		if err = fault(s.opts.Hook, OpDelete, i, key); err != nil {
			err = replicaErr("delete", key, i, err)
		}
	}
	if err == nil {
		if err = s.b.remove(key); err != nil {
			err = fmt.Errorf("blobstore: delete %s: %w", key, err)
		}
	}
	if err != nil {
		s.mx.delErrors.Inc()
		return err
	}
	s.stats.Deletes++
	s.stats.Latency += s.opts.Latency.charge(0)
	return nil
}

// Keys lists every stored key, sorted. The DAL's orphan-blob garbage
// collector uses this to find blobs whose metadata write never happened.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.keys()
}

// Location returns the location string a key would have in this store.
func (s *Store) Location(key string) string { return s.location(key) }

// Stats returns a snapshot of activity counters and of what the store holds.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	n, live, dead := s.b.footprint()
	st.Blobs, st.LiveBytes, st.DeadBytes = int64(n), live, dead
	return st
}

// CorruptReplica flips the last byte of key's payload on one replica, for
// tests exercising checksum-based replica fail-over. It returns
// ErrNotFound if that replica has no such blob.
func (s *Store) CorruptReplica(replica int, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if replica < 0 || replica >= s.opts.Replicas {
		return fmt.Errorf("blobstore: no replica %d", replica)
	}
	return s.b.corrupt(replica, key)
}

// flipLast corrupts a payload in place; an empty one has nothing to flip.
func flipLast(p []byte) error {
	if len(p) == 0 {
		return errors.New("blobstore: cannot corrupt an empty blob")
	}
	p[len(p)-1] ^= 0xFF
	return nil
}

// Close releases a disk store's files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.close()
}

// memBackend keeps every replica's copy of a blob in one map entry.
type memBackend struct {
	blobs    map[string]memBlob
	replicas int
	live     int64
}

type memBlob struct {
	sum    uint32
	copies [][]byte // one per replica
}

func (b *memBackend) put(key string, data []byte, sum uint32, hook FaultHook) error {
	copies := make([][]byte, b.replicas)
	for i := range copies {
		if err := fault(hook, OpPut, i, key); err != nil {
			return replicaErr("put", key, i, err)
		}
		copies[i] = bytes.Clone(data)
	}
	_ = b.remove(key) // the version this one replaces, if any
	b.blobs[key] = memBlob{sum: sum, copies: copies}
	b.live += int64(len(data))
	return nil
}

func (b *memBackend) read(replica int, key string) ([]byte, uint32, error) {
	m, ok := b.blobs[key]
	if !ok {
		return nil, 0, ErrNotFound
	}
	return bytes.Clone(m.copies[replica]), m.sum, nil
}

func (b *memBackend) remove(key string) error {
	m, ok := b.blobs[key]
	if !ok {
		return ErrNotFound
	}
	b.live -= int64(len(m.copies[0]))
	delete(b.blobs, key)
	return nil
}

func (b *memBackend) keys() []string { return slices.Sorted(maps.Keys(b.blobs)) }

func (b *memBackend) corrupt(replica int, key string) error {
	m, ok := b.blobs[key]
	if !ok {
		return ErrNotFound
	}
	return flipLast(m.copies[replica])
}

func (b *memBackend) footprint() (int, int64, int64) { return len(b.blobs), b.live, 0 }

func (b *memBackend) close() error { return nil }
