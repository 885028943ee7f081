package incident

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/dal"
	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

// harness builds a recorder over in-memory stores with a mock clock.
func harness(t *testing.T, cfg Config) (*Recorder, *clock.Mock, *obs.Registry) {
	t.Helper()
	clk := clock.NewMock(t0)
	o := obs.NewRegistry()
	d := dal.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), dal.Options{Obs: o})
	cfg.Obs = o
	cfg.Clock = clk
	cfg.UUIDs = uuid.NewSeeded(7)
	r, err := Open(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, clk, o
}

func TestTriggerCapturesAndGets(t *testing.T) {
	ring := obslog.NewRing(64)
	logger := slog.New(obslog.NewHandler(ring, slog.LevelInfo, nil))
	logger.Info("something happened", "model", "eta")

	tracer := trace.New(trace.Options{Service: "test", Sampler: trace.Always()})
	_, span := trace.Start(context.Background(), "warmup")
	span.End()

	r, _, o := harness(t, Config{Tracer: tracer, Logs: ring})
	inc, err := r.Trigger(context.Background(), Trigger{Kind: "manual", Namespace: "maps", Reason: "drill"})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Trigger != "manual" || inc.Scope != "maps" || inc.Size <= 0 {
		t.Fatalf("unexpected incident meta: %+v", inc)
	}
	got, bundle, err := r.Get(context.Background(), inc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != inc.ID || got.Created != inc.Created {
		t.Fatalf("Get meta mismatch: %+v vs %+v", got, inc)
	}
	reg := bundle.Registry
	if reg.Service != "galleryd" {
		t.Fatalf("snapshot service = %q", reg.Service)
	}
	if len(reg.Metrics) == 0 || reg.MetricsProm == "" {
		t.Fatal("metrics sections empty")
	}
	if len(reg.Traces) == 0 {
		t.Fatal("trace section empty")
	}
	if len(reg.Logs) == 0 || reg.Logs[0].Msg != "something happened" {
		t.Fatalf("log tail wrong: %+v", reg.Logs)
	}
	if reg.GoroutineProfile == "" || !strings.Contains(reg.GoroutineProfile, "goroutine") {
		t.Fatal("goroutine profile missing")
	}
	if reg.Build.GoVersion == "" || reg.Build.Version == "" {
		t.Fatalf("build info not stamped: %+v", reg.Build)
	}
	if v := o.Counter("incident_captures_total").Value(); v != 1 {
		t.Fatalf("captures counter = %v", v)
	}
}

func TestDebouncePerScope(t *testing.T) {
	r, clk, o := harness(t, Config{})
	ctx := context.Background()
	if _, err := r.Trigger(ctx, Trigger{Kind: "slo.burn", ModelID: "m1"}); err != nil {
		t.Fatal(err)
	}
	// Same scope inside the window: suppressed, regardless of trigger kind.
	for i := 0; i < 5; i++ {
		_, err := r.Trigger(ctx, Trigger{Kind: "rule", ModelID: "m1"})
		if !errors.Is(err, ErrSuppressed) {
			t.Fatalf("trigger %d: err = %v, want ErrSuppressed", i, err)
		}
	}
	// A different scope is its own bucket.
	if _, err := r.Trigger(ctx, Trigger{Kind: "slo.burn", Namespace: "maps"}); err != nil {
		t.Fatal(err)
	}
	// Past the window the scope re-arms.
	clk.Advance(debounce)
	if _, err := r.Trigger(ctx, Trigger{Kind: "slo.burn", ModelID: "m1"}); err != nil {
		t.Fatal(err)
	}
	if v := o.Counter("incident_captures_total").Value(); v != 3 {
		t.Fatalf("captures = %v, want 3", v)
	}
	if v := o.Counter("incident_suppressed_total").Value(); v != 5 {
		t.Fatalf("suppressed = %v, want 5", v)
	}
	incs, err := r.List("")
	if err != nil || len(incs) != 3 {
		t.Fatalf("List = %d incidents (%v), want 3", len(incs), err)
	}
}

func TestRetentionPrunes(t *testing.T) {
	r, clk, _ := harness(t, Config{})
	ctx := context.Background()
	var ids []string
	for i := 0; i < keepBundles+2; i++ {
		inc, err := r.Trigger(ctx, Trigger{Kind: "manual", Namespace: fmt.Sprintf("ns%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, inc.ID)
		clk.Advance(time.Minute)
	}
	incs, err := r.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != keepBundles {
		t.Fatalf("retained %d incidents, want %d", len(incs), keepBundles)
	}
	// Newest first; the two oldest are gone — row and blob.
	if incs[0].ID != ids[len(ids)-1] || incs[keepBundles-1].ID != ids[2] {
		t.Fatalf("retained wrong incidents: %+v", incs)
	}
	for _, id := range ids[:2] {
		if _, _, err := r.Get(ctx, id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("pruned Get err = %v, want ErrNotFound", err)
		}
	}
}

func TestNamespaceScopedList(t *testing.T) {
	r, clk, _ := harness(t, Config{})
	ctx := context.Background()
	for _, ns := range []string{"maps", "fraud", "maps"} {
		if _, err := r.Trigger(ctx, Trigger{Kind: "manual", Namespace: ns, ModelID: ns + "-m" + clk.Now().Format("05")}); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	maps, err := r.List("maps")
	if err != nil || len(maps) != 2 {
		t.Fatalf("List(maps) = %d (%v), want 2", len(maps), err)
	}
	all, err := r.List("")
	if err != nil || len(all) != 3 {
		t.Fatalf("List() = %d (%v), want 3", len(all), err)
	}
}

func TestGatewayPullAndPartialMarking(t *testing.T) {
	// A live gateway: the bundle embeds its snapshot.
	gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/debug/bundle" {
			http.NotFound(w, req)
			return
		}
		if got := req.Header.Get("Authorization"); got != "Bearer sesame" {
			t.Errorf("gateway saw Authorization %q", got)
		}
		_ = json.NewEncoder(w).Encode(api.ProcessSnapshot{Service: "galleryserve", MetricsProm: "# up 1\n"})
	}))
	r, _, _ := harness(t, Config{Gateway: gw.URL, GatewayToken: "sesame"})
	inc, err := r.Trigger(context.Background(), Trigger{Kind: "manual", Namespace: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Partial {
		t.Fatal("live gateway marked partial")
	}
	_, bundle, err := r.Get(context.Background(), inc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bundle.Gateway == nil || bundle.Gateway.Service != "galleryserve" {
		t.Fatalf("gateway snapshot missing: %+v", bundle.Gateway)
	}

	// Kill the gateway: the capture still lands, marked partial.
	gw.Close()
	inc2, err := r.Trigger(context.Background(), Trigger{Kind: "manual", Namespace: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !inc2.Partial {
		t.Fatal("dead gateway not marked partial")
	}
	_, bundle2, err := r.Get(context.Background(), inc2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bundle2.Gateway != nil || bundle2.GatewayError == "" {
		t.Fatalf("partial bundle shape wrong: gw=%v err=%q", bundle2.Gateway, bundle2.GatewayError)
	}
}

func TestBundleSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "meta.wal")
	open := func() (*dal.DAL, func()) {
		meta, err := relstore.Open(walPath, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		blobs, err := blobstore.NewDisk(filepath.Join(dir, "blobs"), blobstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return dal.New(meta, blobs, dal.Options{Obs: obs.NewRegistry()}), func() { blobs.Close(); meta.Close() }
	}

	d, cleanup := open()
	r, err := Open(d, Config{Obs: obs.NewRegistry(), Clock: clock.NewMock(t0), UUIDs: uuid.NewSeeded(9)})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := r.Trigger(context.Background(), Trigger{Kind: "manual", Namespace: "maps", Reason: "pre-restart"})
	if err != nil {
		t.Fatal(err)
	}
	cleanup()

	// "Restart": fresh stores replay the WAL; the bundle must be listable
	// and fetchable with its sections intact.
	d2, cleanup2 := open()
	defer cleanup2()
	r2, err := Open(d2, Config{Obs: obs.NewRegistry(), Clock: clock.NewMock(t0), UUIDs: uuid.NewSeeded(10)})
	if err != nil {
		t.Fatal(err)
	}
	incs, err := r2.List("")
	if err != nil || len(incs) != 1 || incs[0].ID != inc.ID {
		t.Fatalf("post-restart List = %+v (%v)", incs, err)
	}
	got, bundle, err := r2.Get(context.Background(), inc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "pre-restart" || len(bundle.Registry.Metrics) == 0 {
		t.Fatalf("post-restart bundle degraded: %+v", got)
	}
}

func TestScopeSelection(t *testing.T) {
	cases := []struct {
		tr   Trigger
		want string
	}{
		{Trigger{ModelID: "m", Namespace: "ns"}, "m"},
		{Trigger{Namespace: "ns"}, "ns"},
		{Trigger{}, "process"},
	}
	for _, c := range cases {
		if got := c.tr.Scope(); got != c.want {
			t.Errorf("Scope(%+v) = %q, want %q", c.tr, got, c.want)
		}
	}
}

func TestAuditTailScoping(t *testing.T) {
	store := relstore.NewMemory()
	log, err := audit.Open(store, audit.Options{Clock: clock.NewMock(t0), UUIDs: uuid.NewSeeded(11), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := audit.WithActor(context.Background(), "test")
	if err := log.Record(ctx, audit.Event{Action: "model.promote", EntityType: audit.EntityModel, EntityID: "m1", ModelID: "m1"}); err != nil {
		t.Fatal(err)
	}
	if err := log.Record(ctx, audit.Event{Action: "model.promote", EntityType: audit.EntityModel, EntityID: "m2", ModelID: "m2"}); err != nil {
		t.Fatal(err)
	}

	clk := clock.NewMock(t0)
	o := obs.NewRegistry()
	d := dal.New(store, blobstore.NewMemory(blobstore.Options{}), dal.Options{Obs: o})
	r, err := Open(d, Config{Obs: o, Audit: log, Clock: clk, UUIDs: uuid.NewSeeded(12)})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := r.Trigger(context.Background(), Trigger{Kind: "manual", ModelID: "m1"})
	if err != nil {
		t.Fatal(err)
	}
	_, bundle, err := r.Get(context.Background(), inc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Audit) != 1 || bundle.Audit[0].ModelID != "m1" {
		t.Fatalf("audit tail not scoped to model: %+v", bundle.Audit)
	}
}

// TestGetReadsBundleWithProfiles: bundles persisted while the daemons ran
// a continuous profiler carry a "profiles" array in each process
// snapshot. testdata/bundle-with-profiles.json.gz is one such blob, as a
// galleryd and galleryserve pair of that time wrote it. Get still reads
// it, every field but the dropped key intact.
func TestGetReadsBundleWithProfiles(t *testing.T) {
	f, err := os.Open("testdata/bundle-with-profiles.json.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for _, side := range []string{"registry", "gateway"} {
		snap, _ := want[side].(map[string]any)
		if _, ok := snap["profiles"]; !ok {
			t.Fatalf("fixture's %s snapshot has no profiles array", side)
		}
		delete(snap, "profiles")
	}

	// The index row is the one capture writes: the bundle's incident with
	// the blob's size, which Get stamps back onto the bundle.
	var stored api.IncidentBundle
	if err := json.Unmarshal(blob, &stored); err != nil {
		t.Fatal(err)
	}
	inc := stored.Incident
	inc.Size = int64(len(blob))
	want["incident"].(map[string]any)["size"] = float64(inc.Size)
	r, _, _ := harness(t, Config{})
	ctx := context.Background()
	if _, err := r.d.InsertWithBlob(ctx, Table, rowOf(inc), "location", "incident-"+inc.ID, blob); err != nil {
		t.Fatal(err)
	}

	_, bundle, err := r.Get(ctx, inc.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(bundle)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	diffFields(t, "bundle", got, want)
}

// diffFields reports every field of two decoded JSON objects that differs,
// descending into nested objects.
func diffFields(t *testing.T, path string, got, want map[string]any) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s.%s lost", path, k)
			continue
		}
		gm, gok := g.(map[string]any)
		wm, wok := w.(map[string]any)
		if gok && wok {
			diffFields(t, path+"."+k, gm, wm)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s.%s = %.200v, want %.200v", path, k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s.%s appeared", path, k)
		}
	}
}
