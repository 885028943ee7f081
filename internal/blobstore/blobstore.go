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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
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
}

// backend stores framed blobs (4-byte CRC32C prefix + payload) by key.
type backend interface {
	put(key string, framed []byte) error
	get(key string) ([]byte, error)
	delete(key string) error
	keys() []string
}

// Store is a replicated blob store. It is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	replicas []backend
	opts     Options
	stats    Stats
	scheme   string
	mx       storeMetrics
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
	reps := make([]backend, opts.Replicas)
	for i := range reps {
		reps[i] = &memBackend{blobs: make(map[string][]byte)}
	}
	return &Store{replicas: reps, opts: opts, scheme: "mem", mx: newStoreMetrics(nil)}
}

// NewDisk returns a Store whose replicas live in subdirectories of dir.
func NewDisk(dir string, opts Options) (*Store, error) {
	opts = normalize(opts)
	reps := make([]backend, opts.Replicas)
	for i := range reps {
		sub := filepath.Join(dir, fmt.Sprintf("r%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("blobstore: create replica dir: %w", err)
		}
		reps[i] = &diskBackend{dir: sub}
	}
	return &Store{replicas: reps, opts: opts, scheme: "disk", mx: newStoreMetrics(nil)}, nil
}

func normalize(opts Options) Options {
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	return opts
}

// frame prefixes data with its CRC32C so corruption is detectable
// end-to-end regardless of backend.
func frame(data []byte) []byte {
	out := make([]byte, 4+len(data))
	binary.LittleEndian.PutUint32(out[:4], crc32.Checksum(data, crcTable))
	copy(out[4:], data)
	return out
}

// unframe verifies and strips the checksum prefix.
func unframe(framed []byte) ([]byte, error) {
	if len(framed) < 4 {
		return nil, ErrCorrupt
	}
	want := binary.LittleEndian.Uint32(framed[:4])
	data := framed[4:]
	if crc32.Checksum(data, crcTable) != want {
		return nil, ErrCorrupt
	}
	return data, nil
}

// Put stores data under key on every replica and returns its location.
// A failure on any replica fails the put: Gallery prefers a clean failure
// it can retry over a blob it cannot trust to be durable.
func (s *Store) Put(key string, data []byte) (string, error) {
	start := time.Now()
	if key == "" || strings.ContainsAny(key, "/\\") {
		return "", fmt.Errorf("blobstore: invalid key %q", key)
	}
	framed := frame(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.mx.putSeconds.ObserveSince(start)
	for i, r := range s.replicas {
		if s.opts.Hook != nil {
			if err := s.opts.Hook(OpPut, i, key); err != nil {
				s.mx.putErrors.Inc()
				return "", fmt.Errorf("blobstore: put %s replica %d: %w", key, i, err)
			}
		}
		if err := r.put(key, framed); err != nil {
			s.mx.putErrors.Inc()
			return "", fmt.Errorf("blobstore: put %s replica %d: %w", key, i, err)
		}
	}
	s.stats.Puts++
	s.stats.BytesIn += int64(len(data))
	s.stats.Latency += s.opts.Latency.charge(len(data) * len(s.replicas))
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
	var lastErr error = ErrNotFound
	for i, r := range s.replicas {
		if s.opts.Hook != nil {
			if err := s.opts.Hook(OpGet, i, key); err != nil {
				lastErr = err
				continue
			}
		}
		framed, err := r.get(key)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := unframe(framed)
		if err != nil {
			s.stats.CorruptSkips++
			s.mx.corruptSkips.Inc()
			lastErr = err
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

// Delete removes the blob from every replica. Missing replicas are ignored
// so deletes are idempotent, but a blob absent everywhere is ErrNotFound.
func (s *Store) Delete(location string) error {
	start := time.Now()
	key, err := s.Key(location)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.mx.delSeconds.ObserveSince(start)
	found := false
	for i, r := range s.replicas {
		if s.opts.Hook != nil {
			if err := s.opts.Hook(OpDelete, i, key); err != nil {
				s.mx.delErrors.Inc()
				return fmt.Errorf("blobstore: delete %s replica %d: %w", key, i, err)
			}
		}
		if err := r.delete(key); err == nil {
			found = true
		}
	}
	if !found {
		s.mx.delErrors.Inc()
		return fmt.Errorf("blobstore: delete %s: %w", key, ErrNotFound)
	}
	s.stats.Deletes++
	s.stats.Latency += s.opts.Latency.charge(0)
	return nil
}

// Keys lists every key present on at least one replica, sorted. The DAL's
// orphan-blob garbage collector uses this to find blobs whose metadata
// write never happened.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := make(map[string]bool)
	for _, r := range s.replicas {
		for _, k := range r.keys() {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Location returns the location string a key would have in this store.
func (s *Store) Location(key string) string { return s.location(key) }

// Stats returns a snapshot of activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CorruptReplica flips a byte of key's payload on one replica, for tests
// exercising checksum-based replica fail-over. It returns ErrNotFound if
// that replica has no such blob.
func (s *Store) CorruptReplica(replica int, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if replica < 0 || replica >= len(s.replicas) {
		return fmt.Errorf("blobstore: no replica %d", replica)
	}
	framed, err := s.replicas[replica].get(key)
	if err != nil {
		return err
	}
	framed[len(framed)-1] ^= 0xFF
	return s.replicas[replica].put(key, framed)
}

// memBackend keeps framed blobs in a map.
type memBackend struct {
	blobs map[string][]byte
}

func (b *memBackend) put(key string, framed []byte) error {
	cp := make([]byte, len(framed))
	copy(cp, framed)
	b.blobs[key] = cp
	return nil
}

func (b *memBackend) get(key string) ([]byte, error) {
	framed, ok := b.blobs[key]
	if !ok {
		return nil, ErrNotFound
	}
	cp := make([]byte, len(framed))
	copy(cp, framed)
	return cp, nil
}

func (b *memBackend) delete(key string) error {
	if _, ok := b.blobs[key]; !ok {
		return ErrNotFound
	}
	delete(b.blobs, key)
	return nil
}

func (b *memBackend) keys() []string {
	out := make([]string, 0, len(b.blobs))
	for k := range b.blobs {
		out = append(out, k)
	}
	return out
}

// diskBackend stores each framed blob as one file.
type diskBackend struct {
	dir string
}

func (b *diskBackend) path(key string) string { return filepath.Join(b.dir, key) }

func (b *diskBackend) put(key string, framed []byte) error {
	// Write-then-rename so a crash never leaves a half-written visible blob.
	tmp := b.path(key) + ".tmp"
	if err := os.WriteFile(tmp, framed, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, b.path(key))
}

func (b *diskBackend) get(key string) ([]byte, error) {
	data, err := os.ReadFile(b.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	return data, err
}

func (b *diskBackend) delete(key string) error {
	err := os.Remove(b.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return ErrNotFound
	}
	return err
}

func (b *diskBackend) keys() []string {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && !strings.HasSuffix(e.Name(), ".tmp") {
			out = append(out, e.Name())
		}
	}
	return out
}
