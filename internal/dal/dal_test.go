package dal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/obs"
	"gallery/internal/relstore"
)

func schema() relstore.Schema {
	return relstore.Schema{
		Table: "instances",
		Columns: []relstore.Column{
			{Name: "id", Kind: relstore.KindString},
			{Name: "blob_location", Kind: relstore.KindString, Nullable: true},
			{Name: "created", Kind: relstore.KindTime},
		},
		Key:     "id",
		Indexes: []string{"blob_location"},
	}
}

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

func newDAL(t *testing.T, hook blobstore.FaultHook, cacheBytes int64) *DAL {
	t.Helper()
	meta := relstore.NewMemory()
	if err := meta.CreateTable(schema()); err != nil {
		t.Fatal(err)
	}
	blobs := blobstore.NewMemory(blobstore.Options{Hook: hook})
	// A registry of its own: counters start at zero on every run, so a
	// test that waits on one (the stampede test's coalesced count) passes
	// at any -count.
	return New(meta, blobs, Options{
		CacheBytes: cacheBytes,
		Refs:       []BlobRef{{Table: "instances", LocField: "blob_location"}},
		Obs:        obs.NewRegistry(),
	})
}

func instRow(id string) relstore.Row {
	return relstore.Row{"id": relstore.String(id), "created": relstore.Time(t0)}
}

func TestInsertWithBlobHappyPath(t *testing.T) {
	d := newDAL(t, nil, 1<<20)
	loc, err := d.InsertWithBlob(context.Background(), "instances", instRow("i1"), "blob_location", "i1", []byte("model-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	row, err := d.Meta().Get(context.Background(), "instances", "i1")
	if err != nil {
		t.Fatal(err)
	}
	if row["blob_location"].Str != loc {
		t.Fatalf("metadata location = %q, want %q", row["blob_location"].Str, loc)
	}
	data, err := d.GetBlobCtx(context.Background(), loc)
	if err != nil || string(data) != "model-bytes" {
		t.Fatalf("GetBlob = %q, %v", data, err)
	}
}

func TestBlobFailureWritesNoMetadata(t *testing.T) {
	boom := errors.New("s3 down")
	d := newDAL(t, func(op blobstore.OpKind, replica int, key string) error {
		if op == blobstore.OpPut {
			return boom
		}
		return nil
	}, 0)
	_, err := d.InsertWithBlob(context.Background(), "instances", instRow("i1"), "blob_location", "i1", []byte("x"))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Meta().Get(context.Background(), "instances", "i1"); !errors.Is(err, relstore.ErrNotFound) {
		t.Fatal("metadata written despite blob failure — §3.5 invariant violated")
	}
	dangling, err := d.Dangling()
	if err != nil {
		t.Fatal(err)
	}
	if len(dangling) != 0 {
		t.Fatalf("dangling metadata after blob failure: %v", dangling)
	}
}

func TestMetadataFailureOrphansBlob(t *testing.T) {
	d := newDAL(t, nil, 0)
	// First insert succeeds; second with the same pk fails at metadata,
	// leaving its blob orphaned.
	if _, err := d.InsertWithBlob(context.Background(), "instances", instRow("i1"), "blob_location", "i1-blob", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	_, err := d.InsertWithBlob(context.Background(), "instances", instRow("i1"), "blob_location", "i1-blob-retry", []byte("v2"))
	if !errors.Is(err, relstore.ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
	orphans, err := d.Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 {
		t.Fatalf("orphans = %v, want exactly the failed write's blob", orphans)
	}
	// No dangling metadata either way.
	dangling, _ := d.Dangling()
	if len(dangling) != 0 {
		t.Fatalf("dangling = %v", dangling)
	}
	// GC reclaims it; the live blob survives.
	n, err := d.CollectOrphans()
	if err != nil || n != 1 {
		t.Fatalf("CollectOrphans = %d, %v", n, err)
	}
	row, _ := d.Meta().Get(context.Background(), "instances", "i1")
	if _, err := d.GetBlobCtx(context.Background(), row["blob_location"].Str); err != nil {
		t.Fatalf("live blob collected: %v", err)
	}
	orphans, _ = d.Orphans()
	if len(orphans) != 0 {
		t.Fatalf("orphans after GC = %v", orphans)
	}
}

func TestMetadataFirstAblationLeavesDangling(t *testing.T) {
	boom := errors.New("blob store down")
	armed := false
	d := newDAL(t, func(op blobstore.OpKind, replica int, key string) error {
		if armed && op == blobstore.OpPut {
			return boom
		}
		return nil
	}, 0)
	armed = true
	_, err := d.InsertMetadataFirst("instances", instRow("i1"), "blob_location", "i1", []byte("x"))
	if !errors.Is(err, ErrDanglingMetadata) {
		t.Fatalf("err = %v, want ErrDanglingMetadata", err)
	}
	dangling, err := d.Dangling()
	if err != nil {
		t.Fatal(err)
	}
	if len(dangling) != 1 {
		t.Fatalf("dangling = %v, want 1 entry (the ablation's failure mode)", dangling)
	}
}

func TestGetBlobCaching(t *testing.T) {
	d := newDAL(t, nil, 1<<20)
	loc, err := d.InsertWithBlob(context.Background(), "instances", instRow("i1"), "blob_location", "i1", []byte("bytes"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.GetBlobCtx(context.Background(), loc); err != nil {
			t.Fatal(err)
		}
	}
	cs := d.CacheStats()
	if cs.Hits != 4 || cs.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 4 hits / 1 miss", cs)
	}
	if got := d.Blobs().Stats().Gets; got != 1 {
		t.Fatalf("blob store saw %d gets, want 1 (rest served from cache)", got)
	}
}

func TestGetBlobCacheDisabled(t *testing.T) {
	d := newDAL(t, nil, 0)
	loc, err := d.InsertWithBlob(context.Background(), "instances", instRow("i1"), "blob_location", "i1", []byte("bytes"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.GetBlobCtx(context.Background(), loc); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Blobs().Stats().Gets; got != 5 {
		t.Fatalf("blob store saw %d gets with cache off, want 5", got)
	}
}

func TestDeleteBlobInvalidatesCache(t *testing.T) {
	d := newDAL(t, nil, 1<<20)
	loc, err := d.InsertWithBlob(context.Background(), "instances", instRow("i1"), "blob_location", "i1", []byte("bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetBlobCtx(context.Background(), loc); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteBlob(loc); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetBlobCtx(context.Background(), loc); err == nil {
		t.Fatal("deleted blob still served (stale cache)")
	}
}

// TestCrashConsistencyUnderRandomFaults drives many writes with randomly
// injected metadata failures and asserts the §3.5 invariant throughout:
// never dangling metadata; orphans always collectable. (Experiment E13.)
func TestCrashConsistencyUnderRandomFaults(t *testing.T) {
	d := newDAL(t, nil, 0)
	wrote := 0
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("i%d", i%50) // collisions force metadata failures
		_, err := d.InsertWithBlob(context.Background(), "instances", instRow(id), "blob_location",
			fmt.Sprintf("blob-%d", i), []byte("payload"))
		if err == nil {
			wrote++
		}
		if i%20 == 0 {
			dangling, derr := d.Dangling()
			if derr != nil {
				t.Fatal(derr)
			}
			if len(dangling) != 0 {
				t.Fatalf("iteration %d: dangling metadata %v", i, dangling)
			}
		}
	}
	if wrote != 50 {
		t.Fatalf("wrote %d distinct instances, want 50", wrote)
	}
	orphans, err := d.Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 150 {
		t.Fatalf("orphans = %d, want 150 failed writes", len(orphans))
	}
	n, err := d.CollectOrphans()
	if err != nil || n != 150 {
		t.Fatalf("CollectOrphans = %d, %v", n, err)
	}
	// Every live row's blob must still fetch.
	rows, err := d.Meta().Select(context.Background(), relstore.Query{Table: "instances"})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if _, err := d.GetBlobCtx(context.Background(), row["blob_location"].Str); err != nil {
			t.Fatalf("live blob unreadable after GC: %v", err)
		}
	}
}

// TestGCDoesNotReapInFlightInsert reproduces the GC race deterministically:
// an orphan collection that runs between the blob write and the metadata
// insert sees an unreferenced blob, but the location is pinned by the
// in-flight writer, so the collector must skip it. Before the pin protocol
// this test lost the blob and left a dangling metadata pointer.
func TestGCDoesNotReapInFlightInsert(t *testing.T) {
	d := newDAL(t, nil, 1<<20)
	var reclaimed int
	var gcErr error
	d.testAfterBlobPut = func() {
		reclaimed, gcErr = d.CollectOrphans()
	}
	loc, err := d.InsertWithBlob(context.Background(), "instances", instRow("i1"), "blob_location", "i1", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if gcErr != nil {
		t.Fatalf("CollectOrphans mid-insert: %v", gcErr)
	}
	if reclaimed != 0 {
		t.Fatalf("GC reclaimed %d blobs out from under an in-flight insert", reclaimed)
	}
	data, err := d.GetBlobCtx(context.Background(), loc)
	if err != nil || string(data) != "payload" {
		t.Fatalf("blob unreadable after mid-insert GC: %q, %v", data, err)
	}
	dangling, err := d.Dangling()
	if err != nil {
		t.Fatal(err)
	}
	if len(dangling) != 0 {
		t.Fatalf("Dangling() = %v, want empty", dangling)
	}
	if d.isPinned(loc) {
		t.Fatal("location still pinned after insert completed")
	}
}

// TestGCConcurrentWithInserts hammers inserts against a GC loop; run
// with -race. Every committed row's blob must remain readable and no
// metadata may dangle.
func TestGCConcurrentWithInserts(t *testing.T) {
	d := newDAL(t, nil, 1<<20)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.CollectOrphans(); err != nil {
				t.Errorf("CollectOrphans: %v", err)
				return
			}
		}
	}()
	const writers, perWriter = 4, 25
	var iwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		iwg.Add(1)
		go func(w int) {
			defer iwg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("i%d-%d", w, i)
				if _, err := d.InsertWithBlob(context.Background(), "instances", instRow(id), "blob_location", id, []byte("v-"+id)); err != nil {
					t.Errorf("InsertWithBlob(%s): %v", id, err)
					return
				}
			}
		}(w)
	}
	iwg.Wait()
	close(stop)
	wg.Wait()

	rows, err := d.Meta().Select(context.Background(), relstore.Query{Table: "instances"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != writers*perWriter {
		t.Fatalf("rows = %d, want %d", len(rows), writers*perWriter)
	}
	for _, row := range rows {
		if _, err := d.GetBlobCtx(context.Background(), row["blob_location"].Str); err != nil {
			t.Fatalf("blob for %s unreadable after concurrent GC: %v", row["id"].Str, err)
		}
	}
	dangling, err := d.Dangling()
	if err != nil {
		t.Fatal(err)
	}
	if len(dangling) != 0 {
		t.Fatalf("Dangling() = %v, want empty", dangling)
	}
}

// TestGetBlobStampedeCoalesced asserts that concurrent cache-miss reads of
// the same location hit the backend exactly once: followers wait on the
// leader's in-flight fetch instead of stampeding the blob store.
func TestGetBlobStampedeCoalesced(t *testing.T) {
	release := make(chan struct{})
	d := newDAL(t, func(op blobstore.OpKind, replica int, key string) error {
		if op == blobstore.OpGet {
			<-release // hold the leader's backend read open
		}
		return nil
	}, 0) // cache disabled: every read takes the singleflight path
	// Seed the blob without tripping the Get hook.
	loc, err := d.InsertWithBlob(context.Background(), "instances", instRow("i1"), "blob_location", "i1", []byte("hot-model"))
	if err != nil {
		t.Fatal(err)
	}

	const followers = 8
	results := make(chan error, followers+1)
	read := func() {
		data, err := d.GetBlobCtx(context.Background(), loc)
		if err == nil && string(data) != "hot-model" {
			err = fmt.Errorf("got %q", data)
		}
		results <- err
	}
	go read() // leader; blocks in the backend on <-release
	// Wait for the leader to register its flight so every follower
	// coalesces onto it.
	for {
		d.mu.Lock()
		_, inFlight := d.flights[loc]
		d.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < followers; i++ {
		go read()
	}
	// Followers bump the coalesced counter before waiting, so once it
	// reaches the follower count they are all parked on the flight.
	for d.cCoalesced.Value() < followers {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	for i := 0; i < followers+1; i++ {
		if err := <-results; err != nil {
			t.Fatalf("GetBlob: %v", err)
		}
	}
	if gets := d.Blobs().Stats().Gets; gets != 1 {
		t.Fatalf("backend Gets = %d, want 1 (stampede not coalesced)", gets)
	}
}
