package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gallery/internal/audit"
	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/obs"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

// TestWALBytesPerMutation gates what the write path logs and reads: a
// seeded model registration, upload, metrics insert and promotion through
// a registry over a durable store must append exactly these records and
// payload bytes, and make exactly these reads of models, versions and
// audit_events (relstore_ops_total). Each step runs under a root span of
// galleryd's default sampler, as a request does, so its audit events carry
// a trace ID. The counts are deterministic (seeded IDs, a mock clock,
// trace IDs of fixed length), so any change to the record format or to
// what a mutation logs or reads moves them; a change that grows them must
// say why here. Record format version 1, which logged whole rows and IDs
// as text, took 1,546, 179 and 846 bytes. While audit events were written
// after the mutation's batch, each in its own record, an upload appended 3
// records of 1,052 bytes and a promotion 2 of 414, and an upload read its
// model 3 times, versions 3 times and audit_events twice.
func TestWALBytesPerMutation(t *testing.T) {
	meta, err := relstore.Open(filepath.Join(t.TempDir(), "meta.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer meta.Close()
	reg := obs.NewRegistry()
	meta.Instrument(reg)
	clk := clock.NewMock(t0)
	g, err := New(meta, blobstore.NewMemory(blobstore.Options{}), Options{Clock: clk, UUIDs: uuid.NewSeeded(7), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	records, bytes := reg.Counter("relstore_wal_records_total"), reg.Counter("relstore_wal_bytes_total")
	ops := reg.CounterVec("relstore_ops_total", []string{"op", "table"}, 0)
	type cost struct{ records, bytes, modelGets, versionGets, auditSelects int64 }
	spent := func() cost {
		return cost{records.Value(), bytes.Value(), ops.With2("get", TableModels).Value(),
			ops.With2("get", TableVersions).Value(), ops.With2("select", audit.Table).Value()}
	}
	tracer := trace.New(trace.Options{Service: "galleryd", Sampler: trace.ErrSlow(250 * time.Millisecond)})
	var first, second *Instance
	for _, step := range []struct {
		name string
		do   func(ctx context.Context) error
		want cost
	}{
		{"register", func(ctx context.Context) error {
			m, err := g.RegisterModelCtx(ctx, ModelSpec{BaseVersionID: "base_01", Project: "marketplace", Name: "demand_001", Owner: "bench", Domain: "UberX"})
			if err == nil {
				first, err = g.UploadInstanceCtx(ctx, InstanceSpec{ModelID: m.ID, Name: "demand_001", City: "sf", Framework: "linear_ar"}, []byte("w1"))
			}
			return err
		}, cost{}},
		{"upload", func(ctx context.Context) error {
			clk.Advance(time.Second)
			second, err = g.UploadInstanceCtx(ctx, InstanceSpec{ModelID: first.ModelID, Name: "demand_001", City: "sf", Framework: "linear_ar",
				TrainingData: "hdfs://warehouse/demand/run_000001", CodePointer: "git://forecasting/demand@9e3779b1",
				Seed: 1, Epochs: 10, Hyperparams: `{"lags":48}`, Features: "lags[1..48],hour,dow"}, []byte("weights"))
			return err
		}, cost{records: 1, bytes: 1048, modelGets: 1, versionGets: 1, auditSelects: 1}},
		{"metrics", func(ctx context.Context) error {
			clk.Advance(time.Second)
			return g.InsertMetricsCtx(ctx, second.ID, ScopeValidation, map[string]float64{"mape": 0.125})
		}, cost{records: 1, bytes: 116}},
		{"promote", func(ctx context.Context) error {
			clk.Advance(time.Second)
			return g.PromoteInstanceCtx(ctx, first.ID)
		}, cost{records: 1, bytes: 412, modelGets: 1, versionGets: 2, auditSelects: 1}},
	} {
		before := spent()
		ctx, root := tracer.StartRoot(context.Background(), step.name, "")
		err := step.do(ctx)
		root.End()
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if step.want == (cost{}) { // set-up, not gated
			continue
		}
		after := spent()
		got := cost{after.records - before.records, after.bytes - before.bytes, after.modelGets - before.modelGets,
			after.versionGets - before.versionGets, after.auditSelects - before.auditSelects}
		if got != step.want {
			t.Errorf("%s cost %+v, want %+v", step.name, got, step.want)
		}
	}
}

// TestCheckedInLogTakesVersion2Appends: the version 1 log in testdata
// replays, takes a registry's version 2 appends (patches among them), and
// the mixed log replays to the live state; Compact rewrites it into
// version 2 records only, which replay to the same state again.
func TestCheckedInLogTakesVersion2Appends(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "lifecycle.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "meta.wal")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	meta, err := relstore.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(meta, blobstore.NewMemory(blobstore.Options{}), Options{Clock: clock.NewMock(t0), UUIDs: uuid.NewSeeded(3)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	models, err := g.ModelsByBase("base_00")
	if err != nil || len(models) == 0 {
		t.Fatalf("models in the checked-in log: %d, %v", len(models), err)
	}
	in, err := g.UploadInstanceCtx(ctx, InstanceSpec{ModelID: models[0].ID, Name: "demand_000", City: "sf", Framework: "linear_ar"}, []byte("w"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.InsertMetricsCtx(ctx, in.ID, ScopeValidation, map[string]float64{"mape": 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := g.PromoteInstanceCtx(ctx, in.ID); err != nil {
		t.Fatal(err)
	}
	want := dumpByName(t, meta)
	for _, step := range []string{"mixed", "compacted"} {
		if step == "compacted" {
			if err := meta.Compact(path); err != nil {
				t.Fatal(err)
			}
		}
		if err := meta.Close(); err != nil {
			t.Fatal(err)
		}
		versions := make(map[byte]int)
		l, err := wal.Open(path, wal.Options{}, func(p []byte) error {
			versions[p[1]]++ // every record in this log is versioned: none is gob
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if step == "mixed" && (versions[1] != 205 || versions[2] == 0) || step == "compacted" && versions[1] != 0 {
			t.Fatalf("%s log holds records by version %v", step, versions)
		}
		if meta, err = relstore.Open(path, wal.Options{}); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := dumpByName(t, meta); got != want {
			t.Fatalf("%s log replayed to a different state", step)
		}
	}
	meta.Close()
}
