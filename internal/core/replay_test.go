package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

// writeLifecycleLog writes a seeded registry history to a metadata WAL at
// path: models, each with a first instance, then iterations of upload,
// metrics, and now and then a promotion back to the first instance or a
// deprecation, every one with its audit rows. It returns the records
// written.
func writeLifecycleLog(tb testing.TB, path string, models, iters int) int {
	tb.Helper()
	meta, err := relstore.Open(path, wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer meta.Close()
	clk := clock.NewMock(t0)
	g, err := New(meta, blobstore.NewMemory(blobstore.Options{}), Options{Clock: clk, UUIDs: uuid.NewSeeded(1)})
	if err != nil {
		tb.Fatal(err)
	}
	cities := []string{"sf", "nyc", "la", "chicago", "london", "paris"}
	r := rand.New(rand.NewSource(1))
	upload := func(m *Model, i int) *Instance {
		clk.Advance(time.Second)
		in, err := g.UploadInstance(InstanceSpec{
			ModelID: m.ID, Name: fmt.Sprintf("demand_%03d", i%models), City: cities[i%len(cities)],
			Framework: "linear_ar", TrainingData: fmt.Sprintf("hdfs://warehouse/demand/run_%06d", i),
			CodePointer: fmt.Sprintf("git://forecasting/demand@%08x", uint32(i)*2654435761),
			Seed:        int64(i), Epochs: 10, Hyperparams: `{"lags":48}`, Features: "lags[1..48],hour,dow",
		}, []byte{byte(i), byte(i >> 8)})
		if err != nil {
			tb.Fatal(err)
		}
		return in
	}
	ms, first := make([]*Model, models), make([]*Instance, models)
	for m := range ms {
		if ms[m], err = g.RegisterModel(ModelSpec{BaseVersionID: fmt.Sprintf("base_%02d", m%8), Project: "marketplace",
			Name: fmt.Sprintf("demand_%03d", m), Owner: "bench", Domain: "UberX"}); err != nil {
			tb.Fatal(err)
		}
		first[m] = upload(ms[m], m)
	}
	for i := 0; i < iters; i++ {
		m := i % models
		in := upload(ms[m], i)
		if err := g.InsertMetrics(in.ID, ScopeValidation, map[string]float64{
			"mape": r.Float64() * 0.5, "bias": r.Float64()*0.2 - 0.1, "r2": 0.5 + r.Float64()*0.5,
		}); err != nil {
			tb.Fatal(err)
		}
		switch i % 20 {
		case 0:
			if err := g.PromoteInstanceCtx(context.Background(), first[m].ID); err != nil {
				tb.Fatal(err)
			}
		case 10:
			if err := g.DeprecateInstance(context.Background(), in.ID); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := meta.Close(); err != nil {
		tb.Fatal(err)
	}
	reopened, err := relstore.Open(path, wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer reopened.Close()
	records, _ := reopened.Replayed()
	return records
}

// BenchmarkReplay times a registry restart: relstore.Open of a lifecycle
// log, then New declaring the schemas over it. It reports the time and the
// allocations per replayed record; profile it with
//
//	go test -run '^$' -bench Replay -cpuprofile cpu.out ./internal/core
func BenchmarkReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "meta.wal")
	records := writeLifecycleLog(b, path, 64, 2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meta, err := relstore.Open(path, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := New(meta, blobstore.NewMemory(blobstore.Options{}), Options{}); err != nil {
			b.Fatal(err)
		}
		if n, _ := meta.Replayed(); n != records {
			b.Fatalf("replayed %d records, the log holds %d", n, records)
		}
		if err := meta.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N * records)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/per, "us/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/record")
}
