package experiments

import (
	"strings"
	"testing"
)

// Every test here asserts that an experiment reproduces the *shape* of the
// paper's corresponding result, per DESIGN.md's per-experiment index.
//
// The tests of E7 and E18–E22 are also the repo's gates: they run at the
// parameters cmd/benchharness prints, and bound every exact count, planner
// verdict and allocs/op figure those runs produce. A bound is the measured
// value: a count or verdict may not move the worse way at all, an allocs/op
// figure above 0 may rise 5 %, and one that reads 0 must stay under half an
// allocation. To re-baseline, edit the bound here. The allocs/op bounds on
// pooled paths skip under -race, where sync.Pool drops items on purpose;
// CI runs this package without -race too, so they still gate.

func TestTable1GalleryRowAllYes(t *testing.T) {
	row, err := Table1Probe()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Table1Features {
		if !row.Features[f] {
			t.Errorf("feature %s probe failed — paper Table 1 reports Y for Gallery", f)
		}
	}
	if !row.Measured {
		t.Error("gallery row must be marked measured")
	}
}

func TestTable1ReportedRowsComplete(t *testing.T) {
	rows := Table1Reported()
	if len(rows) != 9 {
		t.Fatalf("paper Table 1 compares 9 other systems, got %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Features) != len(Table1Features) {
			t.Errorf("%s row has %d features", r.System, len(r.Features))
		}
	}
	// Spot-check two cells against the paper.
	for _, r := range rows {
		switch r.System {
		case "MLFlow":
			if r.Features["Orchestration"] {
				t.Error("paper reports MLFlow without orchestration")
			}
		case "ModelDB":
			if r.Features["Searching"] {
				t.Error("paper reports ModelDB without searching")
			}
		}
	}
}

func TestTable1Format(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Gallery (this repo)") || !strings.Contains(out, "Orchestration") {
		t.Fatalf("format output missing expected content:\n%s", out)
	}
}

// TestLifecycleEndToEnd is Experiment E2: every Figure 1 stage completes,
// and the drift loop (E11) shows degradation then recovery.
func TestLifecycleEndToEnd(t *testing.T) {
	res, err := Lifecycle()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExploredModels != 3 {
		t.Errorf("explored %d models", res.ExploredModels)
	}
	if res.ChampionName != "linear_ar24" {
		t.Errorf("champion = %q; the AR model should beat heuristic and seasonal-naive", res.ChampionName)
	}
	if len(res.Stages) < 7 {
		t.Errorf("lifecycle covered %d stages", len(res.Stages))
	}
	if !res.RetrainTriggered || !res.OldDeprecated {
		t.Errorf("retrain=%v deprecated=%v", res.RetrainTriggered, res.OldDeprecated)
	}
	// E11 shape: drift degrades MAPE by far more than the 25% threshold,
	// and retraining recovers to near pre-shift levels.
	if res.DriftedMAPE < 2*res.PreShiftMAPE {
		t.Errorf("drift too weak: %.2f -> %.2f", res.PreShiftMAPE, res.DriftedMAPE)
	}
	if res.RecoveredMAPE > 2*res.PreShiftMAPE {
		t.Errorf("retrain did not recover: %.2f (pre-shift %.2f)", res.RecoveredMAPE, res.PreShiftMAPE)
	}
	if !res.Drift.Drifted {
		t.Error("drift detector did not fire")
	}
}

// TestLineageFigure4Shape is Experiment E4.
func TestLineageFigure4Shape(t *testing.T) {
	res, err := LineageFigure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bases["demand_conversion"]) != 1 {
		t.Errorf("demand_conversion lineage = %d", len(res.Bases["demand_conversion"]))
	}
	sc := res.Bases["supply_cancellation"]
	if len(sc) != 4 {
		t.Fatalf("supply_cancellation lineage = %d, want 4 (paper Fig. 4)", len(sc))
	}
	seen := map[string]bool{}
	for i := 1; i < len(sc); i++ {
		if sc[i].Created.Before(sc[i-1].Created) {
			t.Error("lineage out of time order")
		}
	}
	for _, in := range sc {
		id := in.ID.String()
		if seen[id] {
			t.Error("duplicate UUID in lineage")
		}
		seen[id] = true
	}
}

// TestDependencyFiguresShape is Experiment E5: the exact version
// progression of Figures 5–7.
func TestDependencyFiguresShape(t *testing.T) {
	steps, err := DependencyFigures()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("%d steps", len(steps))
	}
	want := map[string][3][2]string{ // model -> per-step {latest, production}
		"A": {{"4.0", "4.0"}, {"4.1", "4.0"}, {"4.2", "4.2"}},
		"B": {{"2.0", "2.0"}, {"2.1", "2.1"}, {"2.1", "2.1"}},
		"C": {{"3.0", "3.0"}, {"3.0", "3.0"}, {"3.0", "3.0"}},
		"X": {{"7.0", "7.0"}, {"7.1", "7.0"}, {"7.2", "7.0"}},
		"Y": {{"8.0", "8.0"}, {"8.1", "8.0"}, {"8.2", "8.0"}},
	}
	for si, step := range steps {
		for _, snap := range step.Snapshots {
			exp, ok := want[snap.Model]
			if !ok {
				continue // D appears only in step 3
			}
			if snap.Latest != exp[si][0] || snap.Production != exp[si][1] {
				t.Errorf("step %d model %s: latest=%s production=%s, want %s/%s",
					si, snap.Model, snap.Latest, snap.Production, exp[si][0], exp[si][1])
			}
		}
	}
}

// TestRuleEngineFigure8Shape is Experiment E6.
func TestRuleEngineFigure8Shape(t *testing.T) {
	res, err := RuleEngineFigure8()
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectedFirst {
		t.Error("out-of-threshold metric triggered deployment")
	}
	if len(res.Deployments) != 1 {
		t.Errorf("deployments = %d", len(res.Deployments))
	}
	if res.EngineStats.SelectionRequests != 1 {
		t.Errorf("stats = %+v", res.EngineStats)
	}
}

// TestScaleShape is Experiment E7 at benchharness's tiers: throughput must
// not collapse, the indexed city search (limit 100) and the lineage read
// must return every row the tier holds, and the 10k tier's live heap per
// instance is bounded. The 100k tier takes about 35 s, so a -race run
// keeps the 10k tier only.
func TestScaleShape(t *testing.T) {
	tiers := []int{10_000, 100_000}
	if raceEnabled {
		tiers = tiers[:1]
	}
	rs, err := Scale(tiers)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(tiers) {
		t.Fatalf("%d tiers", len(rs))
	}
	want := map[int]struct{ search, lineage int }{10_000: {25, 25}, 100_000: {100, 250}}
	for _, r := range rs {
		w := want[r.Instances]
		if r.SearchResults < w.search || r.LineageLen < w.lineage {
			t.Errorf("tier %d: search %d rows, lineage %d, want %d and %d",
				r.Instances, r.SearchResults, r.LineageLen, w.search, w.lineage)
		}
		if r.SaveThroughput < 100 {
			t.Errorf("tier %d save throughput %.0f inst/s", r.Instances, r.SaveThroughput)
		}
	}
	// 10x the data must not cost anywhere near 10x the per-instance time
	// (sub-linear indexed access): allow generous CI noise.
	if len(rs) == 2 && rs[1].SaveThroughput < rs[0].SaveThroughput/4 {
		t.Errorf("save throughput collapsed: %.0f -> %.0f", rs[0].SaveThroughput, rs[1].SaveThroughput)
	}
	// The live heap an instance costs the registry: its rows as positional
	// tuples, their index postings, two audit events and the blob. Like the
	// allocation gates it is checked without -race only, whose runtime
	// allocates differently.
	if got, bound := rs[0].HeapPerInstance, 5261*1.05; !raceEnabled && got > bound {
		t.Errorf("tier %d holds %.0f heap bytes per instance, want at most %.0f", rs[0].Instances, got, bound)
	}
}

// TestDynamicSwitchingShape is Experiment E8: switching must beat the
// static model by more than 10% MAPE overall, the paper's headline.
func TestDynamicSwitchingShape(t *testing.T) {
	res, err := DynamicSwitching(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.OverallImprovement(); got <= 10 {
		t.Errorf("overall improvement %.1f%%, paper reports >10%%", got)
	}
	for _, c := range res.Cities {
		if c.StaticMAPE <= 0 || c.SwitchedMAPE <= 0 {
			t.Errorf("degenerate MAPE for %s: %+v", c.City, c)
		}
	}
}

// TestDeploymentAutomation is Experiments E9/E14.
func TestDeploymentAutomation(t *testing.T) {
	res, err := DeploymentCost(100)
	if err != nil {
		t.Fatal(err)
	}
	// E14: ~100 models cost 1-2 hours/day manually.
	hours := res.ManualMinutesDay / 60
	if hours < 1 || hours > 2 {
		t.Errorf("manual arm %.1f hours/day, paper reports 1-2", hours)
	}
	// E9: automation leaves zero recurring human work.
	if res.AutomatedMinutesDay != 0 {
		t.Errorf("automated arm still costs %.1f minutes/day", res.AutomatedMinutesDay)
	}
	if res.Deployed != 90 { // 10% fail the quality gate by construction
		t.Errorf("rule engine deployed %d of 100", res.Deployed)
	}
	if res.EngineActions != int64(res.Deployed) {
		t.Errorf("engine actions %d != deploys %d", res.EngineActions, res.Deployed)
	}
}

// TestSimulationSavingsShape is Experiment E10.
func TestSimulationSavingsShape(t *testing.T) {
	res, err := SimulationSavings()
	if err != nil {
		t.Fatal(err)
	}
	// The calibrated shape: ~1 CPU-hour and ~8 GiB saved per simulation.
	if h := res.CPUSavedSeconds() / 3600; h < 0.5 || h > 2 {
		t.Errorf("CPU saved %.2f hours, want ~1", h)
	}
	if g := float64(res.MemorySavedBytes()) / (1 << 30); g < 4 || g > 16 {
		t.Errorf("memory saved %.2f GiB, want ~8", g)
	}
	// The world must behave the same in both modes.
	ratio := float64(res.Served.CompletedTrips) / float64(res.InSim.CompletedTrips)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("modes diverged: %d vs %d trips", res.InSim.CompletedTrips, res.Served.CompletedTrips)
	}
}

// TestProductionSkew is Experiment E12.
func TestProductionSkew(t *testing.T) {
	res, err := SkewDetection()
	if err != nil {
		t.Fatal(err)
	}
	if res.Healthy.Skewed {
		t.Error("healthy deployment flagged as skewed")
	}
	if !res.Buggy.Skewed {
		t.Errorf("buggy deployment not flagged: gap %.2f", res.Buggy.Gap)
	}
	if res.BuggyMAPE < 2*res.ValidationMAPE {
		t.Errorf("injected bug too weak: %.2f vs validation %.2f", res.BuggyMAPE, res.ValidationMAPE)
	}
}

// TestWriteOrderingCrashConsistency is Experiment E13.
func TestWriteOrderingCrashConsistency(t *testing.T) {
	res, err := WriteOrdering(2000, 7, 11)
	if err != nil {
		t.Fatal(err)
	}
	bf := res.BlobFirst
	if bf.DanglingMetadata != 0 {
		t.Errorf("blob-first produced %d dangling metadata rows — §3.5 invariant violated", bf.DanglingMetadata)
	}
	if bf.ServingFailures != 0 {
		t.Errorf("blob-first: %d committed instances unreadable", bf.ServingFailures)
	}
	if bf.OrphanedBlobs == 0 || bf.OrphansCollected != bf.OrphanedBlobs {
		t.Errorf("orphan accounting: %d orphans, %d collected", bf.OrphanedBlobs, bf.OrphansCollected)
	}
	mf := res.MetadataFirst
	if mf.DanglingMetadata == 0 {
		t.Error("metadata-first ablation produced no dangling metadata; injection broken")
	}
}

// TestModelClassChampionship is Experiment E16 (extension): no single
// model class wins every city, validating per-city champion selection.
func TestModelClassChampionship(t *testing.T) {
	res, err := ModelClassChampionship()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cities) != 6 {
		t.Fatalf("%d cities", len(res.Cities))
	}
	if res.DistinctChampions < 2 {
		t.Errorf("one class won everywhere; the paper's per-city premise did not reproduce")
	}
	for _, c := range res.Cities {
		best := c.Champion
		for name, mape := range c.MAPEByClass {
			if mape < c.MAPEByClass[best]-1e-9 {
				t.Errorf("%s: rule picked %s (%.2f) but %s has %.2f",
					c.City, best, c.MAPEByClass[best], name, mape)
			}
		}
	}
}

// TestDriverRepositioning is Experiment E17 (extension): forecast-driven
// repositioning must materially cut waits and pickup distances, and the
// calendar-aware model must not lose to the lagging heuristic.
func TestDriverRepositioning(t *testing.T) {
	res, err := DriverRepositioning(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 3 {
		t.Fatalf("%d arms", len(res.Arms))
	}
	none, heur, ar := res.Arms[0], res.Arms[1], res.Arms[2]
	if heur.MeanWaitSec >= none.MeanWaitSec/2 {
		t.Errorf("repositioning did not halve waits: %.1f vs %.1f", heur.MeanWaitSec, none.MeanWaitSec)
	}
	if ar.MeanPickupKm >= none.MeanPickupKm {
		t.Errorf("AR repositioning did not cut pickup distance: %.2f vs %.2f",
			ar.MeanPickupKm, none.MeanPickupKm)
	}
	if ar.MeanWaitSec > heur.MeanWaitSec*1.15 {
		t.Errorf("calendar-aware model lost to lagging heuristic: %.1f vs %.1f",
			ar.MeanWaitSec, heur.MeanWaitSec)
	}
	if none.Repositions != 0 || heur.Repositions == 0 {
		t.Errorf("reposition counts: none=%v heur=%v", none.Repositions, heur.Repositions)
	}
}

// TestTieredOnboarding is Experiment E15.
func TestTieredOnboarding(t *testing.T) {
	rs, err := TieredOnboarding()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("%d tiers", len(rs))
	}
	for _, r := range rs {
		if !r.OK {
			t.Errorf("tier %d (%s) failed: %s", r.Tier, r.Name, r.Err)
		}
	}
}

// TestServingGateway is Experiment E18: a prediction storm with a hot swap
// landing mid-storm loses no prediction, the swap reaches traffic, and a
// prediction allocates nothing. The gateway's predict path uses no pool,
// so its count holds under -race too.
func TestServingGateway(t *testing.T) {
	res, err := ServingGateway(8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SwapServed {
		t.Error("predictions after the promotion still came from the old instance")
	}
	if res.AllocsPerOp >= 0.5 {
		t.Errorf("predict allocates %.2f times per call, want 0", res.AllocsPerOp)
	}
}

// TestOnlineDrift is Experiment E19: the continuous health pipeline must
// stay quiet through steady traffic, flip to degraded after the regime
// shift, and fire the retrain rule exactly once per episode.
func TestOnlineDrift(t *testing.T) {
	res, err := OnlineDrift(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 8 {
		t.Fatalf("%d windows", len(res.Windows))
	}
	for _, w := range res.Windows {
		if !w.Shifted && w.Status == "degraded" {
			t.Errorf("window %d degraded before the shift (psi=%.3f)", w.Index, w.PSI)
		}
	}
	if res.DegradedAt != 5 {
		t.Fatalf("degraded at window %d, want 5, the first post-shift window", res.DegradedAt)
	}
	if res.RetrainFired != 1 {
		t.Fatalf("retrain fired %d times, want 1", res.RetrainFired)
	}
	if res.FinalPSI < 0.25 {
		t.Errorf("final psi = %.3f, want >= 0.25", res.FinalPSI)
	}
	if !strings.Contains(res.Format(), "degraded") {
		t.Error("Format() missing verdict")
	}
}

func TestAuditChurnBounded(t *testing.T) {
	res, err := AuditChurn(400, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded() {
		t.Fatalf("trail unbounded: peak %d for keep=%d", res.PeakLen, res.Keep)
	}
	if res.Pruned == 0 {
		t.Fatal("retention never pruned")
	}
	if res.Recorded < 400 {
		t.Fatalf("recorded only %d events over 400 rounds", res.Recorded)
	}
	// 33 is the measured trail; Bounded's envelope (2*keep+8 = 40) is looser.
	if res.PeakLen > 33 || res.FinalLen > 33 {
		t.Fatalf("trail peak %d, final %d events, want at most 33", res.PeakLen, res.FinalLen)
	}
	if !strings.Contains(res.Format(), "bounded=true") {
		t.Error("Format() missing verdict")
	}
}

func TestRelQueryPlannerPaths(t *testing.T) {
	res, err := RelQuery(20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 6 {
		t.Fatalf("%d cases", len(res.Cases))
	}
	// Rows each plan scans and returns, and whether it must stream in
	// index order. gt_over_dup_run's seek skips a 10,000-row equal run;
	// forcescan_sort_reference is the full scan the others are measured
	// against.
	for _, w := range []struct {
		name          string
		scanned, rows int
		ordered       bool
	}{
		{"newest_after_cutoff_desc", 50, 50, true},
		{"after_cutoff_asc_paged", 75, 50, true},
		{"gt_over_dup_run", 25, 25, false},
		{"eq_city_sorted", 20, 20, true},
		{compositeCase, 61, 5, true},
		{"forcescan_sort_reference", 20000, 50, false},
	} {
		c := res.Case(w.name)
		if c == nil {
			t.Errorf("%s: case missing", w.name)
			continue
		}
		if c.Scanned > w.scanned || c.Rows != w.rows {
			t.Errorf("%s scanned %d rows and returned %d, want at most %d and %d", w.name, c.Scanned, c.Rows, w.scanned, w.rows)
		}
		if w.ordered && !c.Ordered {
			t.Errorf("%s sorted its result, want it streamed in index order", w.name)
		}
	}
	if !strings.Contains(res.Format(), "ordered") {
		t.Error("Format() missing planner columns")
	}
	// The table, a third of its rows updated once, and a quarter of them
	// twinned by a scratch row inserted and deleted.
	if want := 1 + 20000 + 6667 + 2*5000; res.ReplayRecords != want || res.ReplayAllocsPerRecord <= 0 {
		t.Errorf("replayed %d records (%.1f allocs each), want %d", res.ReplayRecords, res.ReplayAllocsPerRecord, want)
	}
	// Replay allocates per record, not through a pool, so this holds
	// under -race as well.
	if got, bound := res.ReplayAllocsPerRecord, 4.0; got > bound {
		t.Errorf("replay allocates %.3f per record, want at most %.3f", got, bound)
	}
}

// TestMultiTenant is Experiment E22 over the assembled daemons: auth adds
// no allocation to a prediction, the authed predict and registry paths
// keep their allocation counts, and a flooding tenant is clipped at its
// burst while the quiet one loses nothing.
func TestMultiTenant(t *testing.T) {
	res, err := MultiTenant(2000)
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled {
		if extra := res.PredictExtraAllocs(); extra >= 0.5 {
			t.Errorf("auth costs %.2f allocs/op on the predict path, want 0", extra)
		}
		if got, bound := res.OnAllocs, 43.039*1.05; got > bound {
			t.Errorf("authed predict allocates %.3f per request, want at most %.3f", got, bound)
		}
		// The binary body, as the Go client sends it (max of eight runs).
		if got, bound := res.OnBinaryAllocs, 43.038*1.05; got > bound {
			t.Errorf("authed binary predict allocates %.3f per request, want at most %.3f", got, bound)
		}
		if got, bound := res.RegOnAllocs, 41.057*1.05; got > bound {
			t.Errorf("authed GET /v1/models/{id} allocates %.3f per request, want at most %.3f", got, bound)
		}
	}
	if res.NoisyAllowed > 10 || res.NoisyRejected < 40 {
		t.Errorf("noisy tenant: %d admitted, %d rejected, want 10 and 40 (burst 10 of 50)", res.NoisyAllowed, res.NoisyRejected)
	}
	if r := res.QuietOKRatio(); r != 1 {
		t.Errorf("quiet tenant ok ratio %.2f, want 1", r)
	}
	if !strings.Contains(res.Format(), "noisy neighbor") {
		t.Error("Format() missing the isolation row")
	}
}
