package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gallery/internal/audit"
	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// checkSeqs fails unless evs, in seq order, hold the seqs 1..len(evs).
func checkSeqs(t *testing.T, evs []audit.Event) {
	t.Helper()
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d (%s on %s) has seq %d, want %d: the trail has a gap or a repeat", i, ev.Action, ev.EntityID, ev.Seq, i+1)
		}
	}
}

// TestUploadFailureAuditsOnce: an upload whose metadata batch fails after
// its blob write adds exactly one instance.upload_failed event to the
// trail, and neither instance.upload nor version.promote, and the failed
// batch consumes no seq. A second registry over the same stores draws the
// first one's seeded IDs, so the instance ID of its upload collides.
func TestUploadFailureAuditsOnce(t *testing.T) {
	meta, blobs := relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{})
	g, err := New(meta, blobs, Options{Clock: clock.NewMock(t0), UUIDs: uuid.NewSeeded(7), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.RegisterModel(ModelSpec{BaseVersionID: "b", Name: "demand"})
	if err != nil {
		t.Fatal(err)
	}
	in, err := g.UploadInstance(InstanceSpec{ModelID: m.ID, Name: "demand"}, []byte("w"))
	if err != nil {
		t.Fatal(err)
	}
	draws := 0 // the IDs the seed gave before in.ID
	for probe := uuid.NewSeeded(7); probe.New() != in.ID; draws++ {
		if draws > 100 {
			t.Fatal("in.ID is not among the seed's first 100 IDs")
		}
	}
	gen := uuid.NewSeeded(7)
	for range draws {
		gen.New()
	}
	g2, err := New(meta, blobs, Options{Clock: clock.NewMock(t0), UUIDs: gen, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	before, err := g2.Audit().Events(audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.UploadInstance(InstanceSpec{ModelID: m.ID, Name: "demand"}, []byte("w")); !errors.Is(err, relstore.ErrDuplicate) {
		t.Fatalf("colliding upload: %v, want a duplicate-key failure of its metadata batch", err)
	}
	after, err := g2.Audit().Events(audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	checkSeqs(t, after)
	if len(after) != len(before)+1 {
		t.Fatalf("the failed upload added %d events, want 1: %+v", len(after)-len(before), after[len(before):])
	}
	if ev := after[len(before)]; ev.Action != audit.ActionUploadFailed || ev.EntityID != in.ID.String() || ev.ModelID != m.ID.String() {
		t.Fatalf("the failed upload recorded %s on %s (model %s), want %s on %s (model %s)", ev.Action, ev.EntityID, ev.ModelID, audit.ActionUploadFailed, in.ID, m.ID)
	}
}

// TestUploadsInterleaveWithRecords races uploads through the registry,
// each taking Registry.mu, then the audit log's lock, then the store's,
// against direct audit.Log.Record calls that take only the last two. The
// trail's seqs must stay unique and gap-free, and each upload's two
// events must hold consecutive seqs. Run with -race.
func TestUploadsInterleaveWithRecords(t *testing.T) {
	const workers, each = 4, 25
	g, err := New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), Options{UUIDs: uuid.NewSeeded(11), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.RegisterModel(ModelSpec{BaseVersionID: "race", Name: "demand"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range each {
				if _, err := g.UploadInstance(InstanceSpec{ModelID: m.ID, Name: fmt.Sprintf("u%d_%d", w, i)}, []byte("w")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range each {
				ev := audit.Event{Action: audit.ActionRuleFire, EntityType: audit.EntityRule, EntityID: fmt.Sprintf("rule%d", w), Detail: fmt.Sprint(i)}
				if err := g.Audit().Record(context.Background(), ev); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	evs, err := g.Audit().Events(audit.Query{})
	if err != nil {
		t.Fatal(err)
	}
	checkSeqs(t, evs)
	if want := 1 + 2*workers*each + workers*each; len(evs) != want {
		t.Fatalf("trail holds %d events, want %d", len(evs), want)
	}
	uploads := 0
	for i, ev := range evs {
		if ev.Action != audit.ActionInstanceUpload {
			continue
		}
		uploads++
		if i+1 == len(evs) || evs[i+1].Action != audit.ActionPromote || evs[i+1].EntityID != ev.EntityID {
			t.Fatalf("upload of %s at seq %d is not followed by its promotion", ev.EntityID, ev.Seq)
		}
	}
	if uploads != workers*each {
		t.Fatalf("%d upload events, want %d", uploads, workers*each)
	}
}
