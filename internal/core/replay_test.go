package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// TestReplayCheckedInLog replays testdata/lifecycle.wal, a metadata log
// writeLifecycleLog(6, 40) wrote when the store still kept each row as a
// map, and compares every table's rows with testdata/lifecycle.dump, the
// by-name dump that build took of the same log. Times compare by instant
// and offset, floats by bits. The registry must then open over it.
func TestReplayCheckedInLog(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "lifecycle.wal"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "lifecycle.dump"))
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
	defer meta.Close()
	if records, legacy := meta.Replayed(); records != 205 || legacy != 0 {
		t.Fatalf("replayed %d records, %d legacy; the log holds 205, none legacy", records, legacy)
	}
	if got := dumpByName(t, meta); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("replay differs from the dump at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("replay has %d dump lines, want %d", len(gl), len(wl))
	}
	if _, err := New(meta, blobstore.NewMemory(blobstore.Options{}), Options{}); err != nil {
		t.Fatalf("registry over the replayed log: %v", err)
	}
}

// dumpByName renders every table in name order, its rows in primary-key
// order, each row's non-null columns in name order as name=kind:value.
func dumpByName(t *testing.T, s *relstore.Store) string {
	t.Helper()
	var b strings.Builder
	names := s.Tables()
	sort.Strings(names)
	for _, name := range names {
		rows, err := s.Select(context.Background(), relstore.Query{Table: name})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "table %s %d\n", name, len(rows))
		for _, r := range rows {
			cols := slices.Sorted(maps.Keys(r))
			for i, c := range cols {
				if i > 0 {
					b.WriteByte(' ')
				}
				v := r[c]
				var s string
				switch v.Kind {
				case relstore.KindString:
					s = strconv.Quote(v.Str)
				case relstore.KindInt:
					s = strconv.FormatInt(v.Int(), 10)
				case relstore.KindFloat:
					s = strconv.FormatUint(math.Float64bits(v.Float()), 16)
				case relstore.KindBool:
					s = strconv.FormatBool(v.Bool())
				case relstore.KindTime:
					s = v.Time().Format(time.RFC3339Nano)
				}
				fmt.Fprintf(&b, "%s=%s:%s", c, v.Kind, s)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
