// Top-level benchmarks: one per experiment in DESIGN.md's index (E1–E15)
// and one per ablation (A1–A5). Run with:
//
//	go test -bench=. -benchmem .
//
// The experiment benches measure the cost of regenerating each paper
// artifact; the ablation benches quantify the design choices the paper
// calls out (§3.4.1 versioning, §3.5 cache and write ordering, §3.7.2
// event triggering, and metadata search indexing).
package gallery_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/dal"
	"gallery/internal/experiments"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/uuid"
)

var benchEpoch = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

// newBenchRegistry builds a deterministic in-memory Gallery pre-filled
// with nInstances across nCities.
func newBenchRegistry(b *testing.B, nInstances, nCities int) (*core.Registry, []uuid.UUID) {
	b.Helper()
	clk := clock.NewMock(benchEpoch)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	models := make([]*core.Model, nCities)
	for c := range models {
		m, err := reg.RegisterModel(core.ModelSpec{
			BaseVersionID: fmt.Sprintf("bench_city%03d", c),
			Project:       "bench", Name: "forecaster", Domain: "UberX",
		})
		if err != nil {
			b.Fatal(err)
		}
		models[c] = m
	}
	blob := []byte("bench model blob")
	ids := make([]uuid.UUID, nInstances)
	for i := 0; i < nInstances; i++ {
		clk.Advance(time.Second)
		in, err := reg.UploadInstance(core.InstanceSpec{
			ModelID: models[i%nCities].ID,
			Name:    "forecaster",
			City:    fmt.Sprintf("city%03d", i%nCities),
		}, blob)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = in.ID
	}
	return reg, ids
}

// --- E1: Table 1 ---

func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1Probe(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2 + E11: Figure 1 lifecycle including drift-retrain loop ---

func BenchmarkLifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Lifecycle()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Drift.Drifted {
			b.Fatal("drift not detected")
		}
	}
}

// --- E4: Figure 4 lineage ---

func BenchmarkLineageFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LineageFigure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: Figures 5–7 dependency propagation ---

func BenchmarkDependencyFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DependencyFigures(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Figure 8 rule engine workflow ---

func BenchmarkRuleEngineFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RuleEngineFigure8(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: scale toward 1M instances ---

// BenchmarkMillionInstancesUpload measures instance-save cost on a
// registry pre-filled with 100k instances over 400 city-sharded models.
func BenchmarkMillionInstancesUpload(b *testing.B) {
	reg, _ := newBenchRegistry(b, 100_000, 400)
	m, err := reg.RegisterModel(core.ModelSpec{BaseVersionID: "upload_target", Project: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	blob := []byte("bench model blob")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, City: "city001"}, blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMillionInstancesSearch measures indexed metadata search at the
// 100k tier (paper Listing 5 shape).
func BenchmarkMillionInstancesSearch(b *testing.B) {
	reg, _ := newBenchRegistry(b, 100_000, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := reg.SearchInstances(core.InstanceFilter{
			City: fmt.Sprintf("city%03d", i%400), Limit: 50,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(found) == 0 {
			b.Fatal("search found nothing")
		}
	}
}

// BenchmarkMillionInstancesFetch measures point blob fetch at the 100k tier.
func BenchmarkMillionInstancesFetch(b *testing.B) {
	reg, ids := newBenchRegistry(b, 100_000, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.FetchBlob(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: dynamic model switching ---

func BenchmarkDynamicSwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DynamicSwitching(3, 11)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverallImprovement(), "%improvement")
	}
}

// --- E9 + E14: deployment automation ---

func BenchmarkDeploymentAutomation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DeploymentCost(100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ManualMinutesDay, "manual-min/day")
	}
}

// --- E10: simulation resource savings ---

func BenchmarkSimulationResourceSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SimulationSavings()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CPUSavedSeconds(), "sim-cpu-s-saved")
		b.ReportMetric(float64(res.MemorySavedBytes())/(1<<30), "GiB-saved")
	}
}

// --- E16 (extension): per-city model-class championship ---

func BenchmarkModelClassChampionship(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ModelClassChampionship()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.DistinctChampions), "champion-classes")
	}
}

// --- E17 (extension): forecast-driven driver repositioning ---

func BenchmarkDriverRepositioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DriverRepositioning(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Arms[0].MeanWaitSec-res.Arms[2].MeanWaitSec, "wait-s-saved")
	}
}

// --- E12: production skew ---

func BenchmarkSkewDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SkewDetection(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: write-ordering consistency ---

func BenchmarkWriteOrderingConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.WriteOrdering(2000, 7, 11)
		if err != nil {
			b.Fatal(err)
		}
		if res.BlobFirst.DanglingMetadata != 0 {
			b.Fatal("invariant violated")
		}
	}
}

// --- Ablation A1: semantic versioning vs UUID+metadata versioning ---
//
// Paper §3.4.1: per-city independent retraining makes semantic versioning
// unmanageable — "cities are no longer aligned against the same versions"
// and the scheme "loses meaning": the same version string ends up naming
// different trained artifacts in different cities. The metric here is
// *ambiguous bindings*: the fraction of assigned identifiers that also
// name a different city's distinct artifact. UUIDs are 0 by construction;
// semver approaches 100% as soon as cities retrain independently. The
// bench also reports assignment cost per op for completeness.

func benchVersioningScheme(b *testing.B, cities int, useUUID bool) {
	gen := uuid.NewSeeded(int64(cities))
	patch := make([]int, cities) // semver arm: per-city independent patch counter
	// binding: identifier -> first city that used it (-1 after a conflict).
	binding := make(map[string]int, b.N)
	ambiguous := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		city := i % cities
		var id string
		if useUUID {
			id = gen.New().String()
		} else {
			// Paper's pre-Gallery rules: retraining bumps the patch,
			// independently per city.
			patch[city]++
			id = fmt.Sprintf("1.0.%d", patch[city])
		}
		if owner, seen := binding[id]; seen {
			if owner != city {
				ambiguous++
				binding[id] = -1
			} else if owner == -1 {
				ambiguous++
			}
		} else {
			binding[id] = city
		}
	}
	b.StopTimer()
	b.ReportMetric(100*float64(ambiguous)/float64(b.N), "%ambiguous-bindings")
}

func BenchmarkVersioningSchemes(b *testing.B) {
	for _, cities := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("semver/cities=%d", cities), func(b *testing.B) {
			benchVersioningScheme(b, cities, false)
		})
		b.Run(fmt.Sprintf("uuid/cities=%d", cities), func(b *testing.B) {
			benchVersioningScheme(b, cities, true)
		})
	}
}

// --- Ablation A2: DAL blob cache on/off ---

func benchBlobRead(b *testing.B, cacheBytes int64) {
	meta := relstore.NewMemory()
	if err := meta.CreateTable(relstore.Schema{
		Table: "instances",
		Columns: []relstore.Column{
			{Name: "id", Kind: relstore.KindString},
			{Name: "blob_location", Kind: relstore.KindString, Nullable: true},
		},
		Key: "id",
	}); err != nil {
		b.Fatal(err)
	}
	blobs := blobstore.NewMemory(blobstore.Options{
		// Model a remote store: the latency is accounted, not slept, and
		// reported as a per-op metric below.
		Latency: blobstore.LatencyModel{Base: 2 * time.Millisecond, PerKB: 10 * time.Microsecond},
	})
	d := dal.New(meta, blobs, dal.Options{CacheBytes: cacheBytes})
	const hotSet = 32
	locs := make([]string, hotSet)
	payload := make([]byte, 64<<10)
	for i := range locs {
		loc, err := d.InsertWithBlob("instances",
			relstore.Row{"id": relstore.String(fmt.Sprintf("i%d", i))},
			"blob_location", fmt.Sprintf("i%d", i), payload)
		if err != nil {
			b.Fatal(err)
		}
		locs[i] = loc
	}
	before := blobs.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.GetBlob(locs[i%hotSet]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	delta := blobs.Stats().Latency - before.Latency
	b.ReportMetric(float64(delta.Microseconds())/float64(b.N), "simulated-us/op")
}

func BenchmarkBlobCacheAblation(b *testing.B) {
	b.Run("cache=on", func(b *testing.B) { benchBlobRead(b, 256<<20) })
	b.Run("cache=off", func(b *testing.B) { benchBlobRead(b, 0) })
}

// --- Ablation A3: blob-first vs metadata-first write ordering ---

func BenchmarkWriteOrderingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.WriteOrdering(1000, 7, 11)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.BlobFirst.DanglingMetadata), "blobfirst-dangling")
		b.ReportMetric(float64(res.MetadataFirst.DanglingMetadata), "metafirst-dangling")
	}
}

// --- Ablation A4: event-triggered rule evaluation vs periodic polling ---
//
// Paper §3.7.2 triggers rule evaluation on metadata/metric updates. The
// alternative is to poll every rule against every instance on a schedule.
// The metric is condition evaluations performed per metric update — the
// work a Gallery deployment pays at production scale.

func benchRuleTrigger(b *testing.B, polling bool) {
	clk := clock.NewMock(benchEpoch)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(4),
	})
	if err != nil {
		b.Fatal(err)
	}
	repo := rules.NewRepo(clk)
	engine := rules.NewEngine(reg, repo, clk)
	engine.RegisterAction("noop", func(*rules.ActionContext) error { return nil })
	rule := &rules.Rule{
		UUID: "a4", Team: "bench", Kind: rules.KindAction,
		When:    "metrics.mape < 5",
		Actions: []rules.ActionRef{{Action: "noop"}},
	}
	if _, err := repo.Commit("bench", "a4", []*rules.Rule{rule}, nil); err != nil {
		b.Fatal(err)
	}
	m, err := reg.RegisterModel(core.ModelSpec{BaseVersionID: "a4"})
	if err != nil {
		b.Fatal(err)
	}
	const fleet = 200
	ids := make([]uuid.UUID, fleet)
	for i := range ids {
		clk.Advance(time.Second)
		in, err := reg.UploadInstance(core.InstanceSpec{ModelID: m.ID}, []byte("x"))
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = in.ID
		if _, err := reg.InsertMetric(in.ID, "mape", core.ScopeProduction, 7); err != nil {
			b.Fatal(err)
		}
	}
	before := engine.Stats().Evaluations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%fleet]
		clk.Advance(time.Second)
		if _, err := reg.InsertMetric(id, "mape", core.ScopeProduction, 4); err != nil {
			b.Fatal(err)
		}
		if polling {
			// A poll sweep evaluates the rule against the whole fleet.
			for _, other := range ids {
				engine.MetricUpdatedCtx(context.Background(), other)
			}
		} else {
			engine.MetricUpdatedCtx(context.Background(), id)
		}
	}
	b.StopTimer()
	evals := engine.Stats().Evaluations - before
	b.ReportMetric(float64(evals)/float64(b.N), "evals/update")
}

func BenchmarkRuleTriggerAblation(b *testing.B) {
	b.Run("event-triggered", func(b *testing.B) { benchRuleTrigger(b, false) })
	b.Run("polling", func(b *testing.B) { benchRuleTrigger(b, true) })
}

// --- Ablation A5: secondary indexes on/off for metadata search ---

func benchSearch(b *testing.B, forceScan bool) {
	reg, _ := newBenchRegistry(b, 50_000, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := reg.SearchInstances(core.InstanceFilter{
			City:      fmt.Sprintf("city%03d", i%400),
			Limit:     50,
			ForceScan: forceScan,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(found) == 0 {
			b.Fatal("search found nothing")
		}
	}
}

func BenchmarkSearchIndexAblation(b *testing.B) {
	b.Run("indexed", func(b *testing.B) { benchSearch(b, false) })
	b.Run("full-scan", func(b *testing.B) { benchSearch(b, true) })
}

// BenchmarkLatestInstancesGlobal measures the "newest N instances across
// the fleet" query, which the ordered-index streaming path serves without
// a sort (relstore Explain.Ordered).
func BenchmarkLatestInstancesGlobal(b *testing.B) {
	reg, _ := newBenchRegistry(b, 100_000, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := reg.SearchInstances(core.InstanceFilter{Limit: 50})
		if err != nil {
			b.Fatal(err)
		}
		if len(found) != 50 {
			b.Fatalf("found %d", len(found))
		}
	}
}
