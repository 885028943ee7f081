// Package dal implements Gallery's unified data access layer.
//
// The paper (§3.5) accesses model storage through one DAL that combines a
// relational store for metadata/metrics with a blob store for model
// binaries, plus a cache on the blob read path. Its central consistency
// rule: "we always write model blobs first and only write the model
// metadata after the model blobs are successfully stored." A crash between
// the two writes can only leave an orphaned blob — invisible to the system
// and collectable by GC — never metadata pointing at a missing blob.
//
// Blob-first ordering opens one hazard of its own: between the blob write
// and the metadata insert the blob is indistinguishable from an orphan, so
// a concurrently running CollectOrphans could reap it and leave exactly
// the dangling metadata the ordering exists to prevent. The DAL closes
// that window with a pin protocol: writers pin the location before the
// blob write and release it after the metadata insert, and the orphan
// scan skips pinned locations. Callers that write blobs outside
// InsertWithBlob (e.g. multi-row batches) use Pin/Unpin directly.
//
// This package reproduces that rule, the cached read path (with
// per-location singleflight so concurrent misses issue one backend
// fetch), and the orphan collector, and (for the write-ordering ablation)
// also exposes the unsafe metadata-first ordering so the experiment in
// DESIGN.md A3 can count the dangling references it produces.
package dal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/cache"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
)

// ErrDanglingMetadata reports metadata whose blob is missing — the failure
// mode blob-first ordering exists to prevent.
var ErrDanglingMetadata = errors.New("dal: metadata references a missing blob")

// BlobRef declares that rows of Table reference blob locations in LocField.
// The orphan collector uses these declarations to compute reachability.
type BlobRef struct {
	Table    string
	LocField string
}

// Options configures a DAL.
type Options struct {
	// CacheBytes bounds the blob read cache; 0 disables caching
	// (the cache ablation's off arm).
	CacheBytes int64
	// Refs lists every table/field pair that stores blob locations.
	Refs []BlobRef
	// Obs receives DAL metrics; nil uses obs.Default.
	Obs *obs.Registry
}

// inflightGet is one in-progress backend fetch that concurrent misses on
// the same location wait on instead of issuing their own.
type inflightGet struct {
	done chan struct{}
	data []byte
	err  error
}

// DAL is the data access layer. It is safe for concurrent use.
type DAL struct {
	meta  *relstore.Store
	blobs *blobstore.Store
	cache *cache.Cache
	refs  []BlobRef

	mu      sync.Mutex
	pinned  map[string]int          // location -> pin count
	flights map[string]*inflightGet // location -> in-progress fetch

	// testAfterBlobPut, when set by tests, runs in InsertWithBlob between
	// the blob write and the metadata insert — the GC-race window.
	testAfterBlobPut func()

	cBlobPuts    *obs.Counter
	cBlobGets    *obs.Counter
	cCacheHits   *obs.Counter
	cCacheMisses *obs.Counter
	cCoalesced   *obs.Counter
	cGCRuns      *obs.Counter
	cGCReclaimed *obs.Counter
	gPinned      *obs.Gauge
	hGetSeconds  *obs.Histogram
}

// New assembles a DAL over the given stores.
func New(meta *relstore.Store, blobs *blobstore.Store, opts Options) *DAL {
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default
	}
	c := cache.New(opts.CacheBytes)
	d := &DAL{
		meta:    meta,
		blobs:   blobs,
		cache:   c,
		refs:    opts.Refs,
		pinned:  make(map[string]int),
		flights: make(map[string]*inflightGet),

		cBlobPuts:    reg.Counter("dal_blob_puts_total"),
		cBlobGets:    reg.Counter("dal_blob_gets_total"),
		cCacheHits:   reg.Counter("dal_cache_hits_total"),
		cCacheMisses: reg.Counter("dal_cache_misses_total"),
		cCoalesced:   reg.Counter("dal_blob_get_coalesced_total"),
		cGCRuns:      reg.Counter("dal_gc_runs_total"),
		cGCReclaimed: reg.Counter("dal_gc_reclaimed_total"),
		gPinned:      reg.Gauge("dal_pinned_locations"),
		hGetSeconds:  reg.Histogram("dal_blob_get_seconds", obs.LatencyBuckets),
	}
	reg.GaugeFunc("dal_cache_bytes", func() float64 { return float64(c.Stats().Bytes) })
	reg.GaugeFunc("dal_cache_hit_ratio", func() float64 {
		st := c.Stats()
		total := st.Hits + st.Misses
		if total == 0 {
			return 0
		}
		return float64(st.Hits) / float64(total)
	})
	return d
}

// Meta exposes the metadata store for queries.
func (d *DAL) Meta() *relstore.Store { return d.meta }

// Blobs exposes the blob store, mainly for stats in experiments.
func (d *DAL) Blobs() *blobstore.Store { return d.blobs }

// Pin marks location as in-flight: the orphan collector will not reclaim
// it even though no metadata references it yet. Pins nest; each Pin needs
// a matching Unpin. Writers pin before the blob write and unpin after the
// metadata insert (or after the write is abandoned — an unpinned orphan
// is then collectable again, which is the desired outcome).
func (d *DAL) Pin(location string) {
	d.mu.Lock()
	d.pinned[location]++
	d.gPinned.Set(float64(len(d.pinned)))
	d.mu.Unlock()
}

// Unpin releases one Pin of location.
func (d *DAL) Unpin(location string) {
	d.mu.Lock()
	if n := d.pinned[location]; n <= 1 {
		delete(d.pinned, location)
	} else {
		d.pinned[location] = n - 1
	}
	d.gPinned.Set(float64(len(d.pinned)))
	d.mu.Unlock()
}

// isPinned reports whether location is currently pinned by a writer.
func (d *DAL) isPinned(location string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pinned[location] > 0
}

// InsertWithBlob writes blob under blobKey, then inserts row with the
// blob's location in locField — the paper's blob-first ordering. The
// location is pinned for the duration so a concurrent CollectOrphans
// cannot reap the blob inside the write window. If the metadata insert
// fails the blob is left behind as an orphan; it is unreachable and a
// later CollectOrphans reclaims it. One span covers the ordered write
// pair, with blob-put and metadata-insert children.
func (d *DAL) InsertWithBlob(ctx context.Context, table string, row relstore.Row, locField, blobKey string, blob []byte) (string, error) {
	ctx, span := trace.Start(ctx, "dal.insert_with_blob")
	loc, err := d.insertWithBlobCtx(ctx, table, row, locField, blobKey, blob)
	span.EndErr(err)
	return loc, err
}

func (d *DAL) insertWithBlobCtx(ctx context.Context, table string, row relstore.Row, locField, blobKey string, blob []byte) (string, error) {
	pinLoc := d.blobs.Location(blobKey)
	d.Pin(pinLoc)
	defer d.Unpin(pinLoc)

	loc, err := d.blobs.PutCtx(ctx, blobKey, blob)
	if err != nil {
		return "", fmt.Errorf("dal: blob write failed, nothing recorded: %w", err)
	}
	d.cBlobPuts.Inc()
	if d.testAfterBlobPut != nil {
		d.testAfterBlobPut()
	}
	row = row.Clone()
	row[locField] = relstore.String(loc)
	if err := d.meta.InsertCtx(ctx, table, row); err != nil {
		return "", fmt.Errorf("dal: metadata write failed, blob %s orphaned: %w", blobKey, err)
	}
	return loc, nil
}

// PutBlobCtx writes a blob through the DAL so the write is counted. Callers
// composing their own metadata transaction (e.g. a multi-row batch) must
// Pin the key's location before calling and Unpin after the metadata
// commit, per the pin protocol.
func (d *DAL) PutBlobCtx(ctx context.Context, key string, blob []byte) (string, error) {
	loc, err := d.blobs.PutCtx(ctx, key, blob)
	if err != nil {
		return "", err
	}
	d.cBlobPuts.Inc()
	return loc, nil
}

// InsertMetadataFirst is the deliberately unsafe ordering for the A3
// ablation: metadata goes in before the blob, so a blob-write failure
// leaves metadata pointing at nothing.
func (d *DAL) InsertMetadataFirst(table string, row relstore.Row, locField, blobKey string, blob []byte) (string, error) {
	loc := d.blobs.Location(blobKey)
	row = row.Clone()
	row[locField] = relstore.String(loc)
	if err := d.meta.InsertCtx(context.Background(), table, row); err != nil {
		return "", err
	}
	if _, err := d.blobs.Put(blobKey, blob); err != nil {
		return "", fmt.Errorf("%w: %s: %v", ErrDanglingMetadata, loc, err)
	}
	d.cBlobPuts.Inc()
	return loc, nil
}

// GetBlobCtx fetches blob bytes by location through the cache. Concurrent
// misses on the same location coalesce into a single backend fetch: one
// caller populates the cache while the rest wait for its result. The
// span's cache attr records which path answered — "hit", "miss" (this
// caller fetched from the backend), or "coalesced" (waited on another
// caller's fetch) — and the read-latency histogram gains an exemplar
// pointing at the trace.
func (d *DAL) GetBlobCtx(ctx context.Context, location string) ([]byte, error) {
	ctx, span := trace.Start(ctx, "dal.get_blob")
	start := time.Now()
	defer func() { d.hGetSeconds.ObserveSinceExemplar(start, span.TraceIDString()) }()
	d.cBlobGets.Inc()

	if data, ok := d.cache.Get(location); ok {
		d.cCacheHits.Inc()
		if span != nil {
			span.Annotate("cache", "hit")
			span.End()
		}
		return data, nil
	}
	d.cCacheMisses.Inc()

	d.mu.Lock()
	if f, ok := d.flights[location]; ok {
		d.mu.Unlock()
		d.cCoalesced.Inc()
		if span != nil {
			span.Annotate("cache", "coalesced")
		}
		<-f.done
		if f.err != nil {
			span.EndErr(f.err)
			return nil, f.err
		}
		cp := make([]byte, len(f.data))
		copy(cp, f.data)
		span.End()
		return cp, nil
	}
	f := &inflightGet{done: make(chan struct{})}
	d.flights[location] = f
	d.mu.Unlock()

	if span != nil {
		span.Annotate("cache", "miss")
	}
	data, err := d.blobs.GetCtx(ctx, location)
	if err == nil {
		d.cache.Put(location, data)
	}
	f.data, f.err = data, err
	d.mu.Lock()
	delete(d.flights, location)
	d.mu.Unlock()
	close(f.done)
	span.EndErr(err)
	return data, err
}

// DeleteBlob removes a blob and its cache entry.
func (d *DAL) DeleteBlob(location string) error {
	d.cache.Remove(location)
	return d.blobs.Delete(location)
}

// CacheStats reports blob-cache effectiveness.
func (d *DAL) CacheStats() cache.Stats { return d.cache.Stats() }

// referenced returns the set of blob locations reachable from metadata.
func (d *DAL) referenced() (map[string]bool, error) {
	refs := make(map[string]bool)
	for _, r := range d.refs {
		rows, err := d.meta.Select(context.Background(), relstore.Query{Table: r.Table})
		if err != nil {
			return nil, fmt.Errorf("dal: scan %s for blob refs: %w", r.Table, err)
		}
		for _, row := range rows {
			if v, ok := row[r.LocField]; ok && v.Kind == relstore.KindString && v.Str != "" {
				refs[v.Str] = true
			}
		}
	}
	return refs, nil
}

// Orphans lists blob locations present in the blob store but referenced by
// no metadata row. Pinned locations — writes in flight between blob put
// and metadata insert — are never reported.
//
// The check order is load-bearing: blob keys are listed first, pins are
// checked second, and metadata is scanned last. Writers pin before the
// blob write and unpin after the metadata insert, so any blob visible in
// the key listing is either still pinned when we look, or its metadata
// insert has already completed and the later metadata scan will see it.
// Scanning metadata first would let a write that committed in between
// look like an orphan.
func (d *DAL) Orphans() ([]string, error) {
	var candidates []string
	for _, key := range d.blobs.Keys() {
		loc := d.blobs.Location(key)
		if d.isPinned(loc) {
			continue
		}
		candidates = append(candidates, loc)
	}
	refs, err := d.referenced()
	if err != nil {
		return nil, err
	}
	var orphans []string
	for _, loc := range candidates {
		if !refs[loc] {
			orphans = append(orphans, loc)
		}
	}
	return orphans, nil
}

// CollectOrphans deletes all orphaned blobs and returns how many it
// reclaimed. Each delete re-checks the pin table under the DAL lock so a
// writer that re-puts an orphaned key mid-collection cannot lose its blob:
// either the writer pins first and the delete is skipped, or the delete
// lands first and the writer's subsequent Put recreates the blob.
func (d *DAL) CollectOrphans() (int, error) {
	d.cGCRuns.Inc()
	orphans, err := d.Orphans()
	if err != nil {
		return 0, err
	}
	reclaimed := 0
	for _, loc := range orphans {
		d.mu.Lock()
		if d.pinned[loc] > 0 {
			d.mu.Unlock()
			continue
		}
		d.cache.Remove(loc)
		err := d.blobs.Delete(loc)
		d.mu.Unlock()
		if err != nil {
			return reclaimed, fmt.Errorf("dal: collect %s: %w", loc, err)
		}
		reclaimed++
		d.cGCReclaimed.Inc()
	}
	return reclaimed, nil
}

// Dangling lists metadata rows whose blob location cannot be fetched — the
// corruption class that blob-first ordering prevents. Experiments use it to
// verify the invariant (zero under blob-first) and to quantify the
// metadata-first ablation.
func (d *DAL) Dangling() ([]string, error) {
	var dangling []string
	for _, r := range d.refs {
		rows, err := d.meta.Select(context.Background(), relstore.Query{Table: r.Table})
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			v, ok := row[r.LocField]
			if !ok || v.Kind != relstore.KindString || v.Str == "" {
				continue
			}
			if _, err := d.blobs.Get(v.Str); err != nil {
				dangling = append(dangling, v.Str)
			}
		}
	}
	return dangling, nil
}
