package audit

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gallery/internal/clock"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

var epoch = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

func testLog(t *testing.T, keep int) *Log {
	t.Helper()
	l, err := Open(relstore.NewMemory(), Options{
		Clock: clock.NewMock(epoch),
		UUIDs: uuid.NewSeeded(1),
		Keep:  keep,
		Obs:   obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestRecordAndQuery(t *testing.T) {
	l := testLog(t, -1)
	ctx := WithActor(context.Background(), "tester")
	if err := l.Record(ctx, Event{
		Action: ActionPromote, EntityType: EntityInstance, EntityID: "i1", ModelID: "m1",
		Before: "v1.1", After: "v1.2",
	}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	if err := l.Record(context.Background(), Event{
		Action: ActionModelDeprecate, EntityType: EntityModel, EntityID: "m1",
	}); err != nil {
		t.Fatalf("Record: %v", err)
	}

	evs, err := l.Events(Query{Action: ActionPromote})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(evs) != 1 {
		t.Fatalf("got %d promote events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Actor != "tester" {
		t.Errorf("actor = %q, want tester (from context)", ev.Actor)
	}
	if ev.Seq != 1 || ev.Before != "v1.1" || ev.After != "v1.2" {
		t.Errorf("event round-trip mismatch: %+v", ev)
	}

	// The model's timeline includes the instance event via model_id.
	tl, err := l.EntityTimeline("m1", 0)
	if err != nil {
		t.Fatalf("EntityTimeline: %v", err)
	}
	if len(tl) != 2 {
		t.Fatalf("model timeline has %d events, want 2 (instance event joins through model_id)", len(tl))
	}
	if tl[0].Seq != 1 || tl[1].Seq != 2 {
		t.Errorf("timeline out of order: seqs %d, %d", tl[0].Seq, tl[1].Seq)
	}
	if tl[1].Actor != "system" {
		t.Errorf("default actor = %q, want system", tl[1].Actor)
	}
}

func TestRecordRejectsIncompleteEvent(t *testing.T) {
	l := testLog(t, -1)
	if err := l.Record(context.Background(), Event{Action: ActionPromote}); err == nil {
		t.Fatal("Record without entity id should fail")
	}
	if err := l.Record(context.Background(), Event{EntityID: "x"}); err == nil {
		t.Fatal("Record without action should fail")
	}
}

func TestTraceIDFromContext(t *testing.T) {
	tr := trace.New(trace.Options{Service: "test", Sampler: mustSampler(t, "always")})
	ctx, span := tr.StartRoot(context.Background(), "op", "")
	defer span.End()

	l := testLog(t, -1)
	if err := l.Record(ctx, Event{Action: ActionRuleFire, EntityID: "i1"}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	evs, _ := l.Events(Query{})
	if got, want := evs[0].TraceID, span.TraceIDString(); got != want {
		t.Errorf("trace id = %q, want %q", got, want)
	}
}

func mustSampler(t *testing.T, spec string) trace.Sampler {
	t.Helper()
	s, err := trace.ParseSampler(spec)
	if err != nil {
		t.Fatalf("ParseSampler(%q): %v", spec, err)
	}
	return s
}

// Retention: pruning keeps the newest N events per entity, and one
// entity's churn does not evict another's history.
func TestRetentionPerEntity(t *testing.T) {
	l := testLog(t, 10)
	ctx := context.Background()
	if err := l.Record(ctx, Event{Action: ActionModelRegister, EntityID: "quiet"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := l.Record(ctx, Event{Action: ActionPromote, EntityID: "busy", Detail: fmt.Sprintf("n%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	busy, err := l.Events(Query{EntityID: "busy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(busy) != 10 {
		t.Fatalf("busy entity retained %d events, want 10", len(busy))
	}
	for i, ev := range busy {
		if want := fmt.Sprintf("n%d", 15+i); ev.Detail != want {
			t.Errorf("retained[%d].Detail = %q, want %q (newest must survive)", i, ev.Detail, want)
		}
	}
	quiet, _ := l.Events(Query{EntityID: "quiet"})
	if len(quiet) != 1 {
		t.Fatalf("quiet entity retained %d events, want 1", len(quiet))
	}
	if l.Len() != 11 {
		t.Errorf("table len = %d, want 11", l.Len())
	}
}

// Restart: the WAL replays the trail without duplicates and the sequence
// resumes past the highest recovered event.
func TestRestartRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	store, err := relstore.Open(path, wal.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	l, err := Open(store, Options{Clock: clock.NewMock(epoch), UUIDs: uuid.NewSeeded(2), Keep: -1, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("audit open: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := l.Record(ctx, Event{Action: ActionPromote, EntityID: "e", Detail: fmt.Sprintf("n%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	store2, err := relstore.Open(path, wal.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer store2.Close()
	l2, err := Open(store2, Options{Clock: clock.NewMock(epoch), UUIDs: uuid.NewSeeded(3), Keep: -1, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("audit reopen: %v", err)
	}
	evs, err := l2.Events(Query{EntityID: "e"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 {
		t.Fatalf("recovered %d events, want 5 (no duplicate replays)", len(evs))
	}
	if err := l2.Record(ctx, Event{Action: ActionPromote, EntityID: "e", Detail: "post"}); err != nil {
		t.Fatal(err)
	}
	evs, _ = l2.Events(Query{EntityID: "e"})
	if got := evs[len(evs)-1].Seq; got != 6 {
		t.Errorf("post-restart seq = %d, want 6 (sequence must resume, not fork)", got)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("timeline reordered after restart: seq %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// Concurrency: emitters racing on one entity never drop an event or
// reorder any single emitter's view of the timeline. Run with -race.
func TestConcurrentEmitters(t *testing.T) {
	const goroutines, each = 8, 50
	l := testLog(t, -1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ev := Event{Action: ActionPromote, EntityID: "shared", Detail: fmt.Sprintf("g%d:%d", g, i)}
				if err := l.Record(context.Background(), ev); err != nil {
					t.Errorf("Record: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	evs, err := l.Events(Query{EntityID: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != goroutines*each {
		t.Fatalf("retained %d events, want %d (no drops)", len(evs), goroutines*each)
	}
	lastPerG := make([]int, goroutines)
	for i := range lastPerG {
		lastPerG[i] = -1
	}
	var prevSeq int64
	for _, ev := range evs {
		if ev.Seq <= prevSeq {
			t.Fatalf("timeline not strictly ordered: seq %d after %d", ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		var g, i int
		if _, err := fmt.Sscanf(ev.Detail, "g%d:%d", &g, &i); err != nil {
			t.Fatalf("bad detail %q", ev.Detail)
		}
		if i != lastPerG[g]+1 {
			t.Fatalf("goroutine %d events reordered: saw %d after %d", g, i, lastPerG[g])
		}
		lastPerG[g] = i
	}
}

func TestEventsTimeWindowAndWhere(t *testing.T) {
	clk := clock.NewMock(epoch)
	l, err := Open(relstore.NewMemory(), Options{Clock: clk, UUIDs: uuid.NewSeeded(4), Keep: -1, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := l.Record(ctx, Event{Action: ActionPromote, EntityID: "e", Actor: fmt.Sprintf("a%d", i)}); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Hour)
	}
	evs, err := l.Events(Query{Since: epoch.Add(2 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("since filter kept %d events, want 2", len(evs))
	}
	evs, err = l.Events(Query{Where: []relstore.Constraint{
		{Field: "actor", Op: relstore.OpPrefix, Value: relstore.String("a1")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Actor != "a1" {
		t.Fatalf("raw constraint query got %+v, want single a1 event", evs)
	}
}

// A Batch lands its mutations and events together or not at all, and a
// failed one consumes no seq.
func TestBatchAtomicWithMutations(t *testing.T) {
	store := relstore.NewMemory()
	if err := store.CreateTable(relstore.Schema{Table: "things", Columns: []relstore.Column{{Name: "id", Kind: relstore.KindString}}, Key: "id"}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(store, Options{Clock: clock.NewMock(epoch), UUIDs: uuid.NewSeeded(5), Keep: -1, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	insert := []relstore.Mutation{{Kind: relstore.MutInsert, Table: "things", Row: relstore.Row{"id": relstore.String("a")}}}
	if err := l.Batch(ctx, insert, Event{Action: ActionModelRegister, EntityID: "a"}, Event{Action: ActionPromote, EntityID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Batch(ctx, insert, Event{Action: ActionModelRegister, EntityID: "a"}); err == nil {
		t.Fatal("a batch inserting a duplicate row succeeded")
	}
	if err := l.Record(ctx, Event{Action: ActionModelDeprecate, EntityID: "a"}); err != nil {
		t.Fatal(err)
	}
	evs, err := l.Events(Query{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range evs {
		got = append(got, fmt.Sprintf("%d:%s", ev.Seq, ev.Action))
	}
	if want := fmt.Sprint([]string{"1:" + ActionModelRegister, "2:" + ActionPromote, "3:" + ActionModelDeprecate}); fmt.Sprint(got) != want {
		t.Fatalf("trail %v, want %v", got, want)
	}
	if n, _ := store.Len("things"); n != 1 {
		t.Fatalf("things holds %d rows, want 1", n)
	}
}

// Retention counts a batch's own events: when they alone exceed the
// bound, only the newest of them are kept.
func TestBatchRetentionCountsItsOwnEvents(t *testing.T) {
	l := testLog(t, 2)
	ctx := context.Background()
	if err := l.Record(ctx, Event{Action: ActionModelRegister, EntityID: "e"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Batch(ctx, nil,
		Event{Action: ActionPromote, EntityID: "e", Detail: "1"},
		Event{Action: ActionPromote, EntityID: "other"},
		Event{Action: ActionPromote, EntityID: "e", Detail: "2"},
		Event{Action: ActionPromote, EntityID: "e", Detail: "3"}); err != nil {
		t.Fatal(err)
	}
	evs, err := l.Events(Query{EntityID: "e"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Detail != "2" || evs[1].Detail != "3" || evs[0].Seq != 4 || evs[1].Seq != 5 {
		t.Fatalf("entity e kept %+v, want its events 2 and 3 at seqs 4 and 5", evs)
	}
	if l.Len() != 3 {
		t.Fatalf("trail holds %d events, want 3", l.Len())
	}
}
