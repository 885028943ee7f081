package experiments

import (
	"strings"
	"testing"
)

// Every test here asserts that an experiment reproduces the *shape* of the
// paper's corresponding result, per DESIGN.md's per-experiment index.

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

// TestScaleShape is Experiment E7 at test-friendly tiers: throughput must
// not collapse and indexed search must stay far below full-scan cost.
func TestScaleShape(t *testing.T) {
	rs, err := Scale([]int{2000, 8000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d tiers", len(rs))
	}
	for _, r := range rs {
		if r.SearchResults == 0 || r.LineageLen == 0 {
			t.Errorf("tier %d found nothing: %+v", r.Instances, r)
		}
		if r.SaveThroughput < 100 {
			t.Errorf("tier %d save throughput %.0f inst/s", r.Instances, r.SaveThroughput)
		}
	}
	// 4x the data must not cost anywhere near 4x the per-instance time
	// (sub-linear indexed access): allow generous CI noise.
	if rs[1].SaveThroughput < rs[0].SaveThroughput/4 {
		t.Errorf("save throughput collapsed: %.0f -> %.0f", rs[0].SaveThroughput, rs[1].SaveThroughput)
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
	if res.DegradedAt == 0 || res.DegradedAt <= 4 {
		t.Fatalf("degraded at window %d, want a post-shift window", res.DegradedAt)
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
	res, err := AuditChurn(200, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bounded() {
		t.Fatalf("trail unbounded: peak %d for keep=%d", res.PeakLen, res.Keep)
	}
	if res.Pruned == 0 {
		t.Fatal("retention never pruned")
	}
	if res.Recorded < 200 {
		t.Fatalf("recorded only %d events over 200 rounds", res.Recorded)
	}
	if res.FinalLen > res.PeakLen {
		t.Fatalf("final %d > peak %d", res.FinalLen, res.PeakLen)
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
	if c := res.Case(compositeCase); c == nil || !c.Ordered || c.Rows != 5 || c.Scanned > 2*c.Candidates {
		t.Errorf("%s = %+v, want 5 rows streamed, scanning at most twice the candidates", compositeCase, c)
	}
	stream := res.Case("newest_after_cutoff_desc")
	if stream == nil || stream.Rows != 50 {
		t.Fatalf("newest_after_cutoff_desc = %+v", stream)
	}
	if !stream.Ordered {
		t.Errorf("OrderBy shares the driving index column but planner sorted (Ordered=false)")
	}
	if asc := res.Case("after_cutoff_asc_paged"); asc == nil || !asc.Ordered || asc.Rows != 50 {
		t.Errorf("after_cutoff_asc_paged = %+v, want ordered with 50 rows", asc)
	}
	if gt := res.Case("gt_over_dup_run"); gt == nil || gt.Scanned > 1000 {
		t.Errorf("OpGt scanned %d postings; seek should skip the %d-row equal run", gt.Scanned, res.DupRun)
	}
	if !strings.Contains(res.Format(), "ordered") {
		t.Error("Format() missing planner columns")
	}
	if len(res.BenchMetrics()) == 0 {
		t.Error("no bench metrics emitted")
	}
}

func TestSloburnDetectionAndIsolation(t *testing.T) {
	res, err := Sloburn(300)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectTicks <= 0 || res.DetectTicks > 15 {
		t.Fatalf("detected in %d ticks, want a prompt fast-window trip", res.DetectTicks)
	}
	if res.BreachSeverity != "fast" {
		t.Fatalf("severity = %q, want fast (sharp outage must trip the fast pair first)", res.BreachSeverity)
	}
	if res.RuleFired == 0 {
		t.Fatal("model burn event never fired the page rule")
	}
	if res.QuietBreached || res.QuietBudget != 1 {
		t.Fatalf("quiet tenant damaged: budget %.3f breached=%v", res.QuietBudget, res.QuietBreached)
	}
	if res.RecoveryTicks <= 0 {
		t.Fatal("breach never cleared after the fault was removed")
	}
	if extra := res.REDExtraAllocs(); extra > 0.5 {
		t.Fatalf("auth+RED cost %.1f allocs/op on the predict path, want 0", extra)
	}
	if !strings.Contains(res.Format(), "breached after") {
		t.Error("Format() missing detection verdict")
	}
}

func TestIncidentCaptureDebounceAndDurability(t *testing.T) {
	res, err := IncidentCapture(300)
	if err != nil {
		t.Fatal(err)
	}
	if res.BurnEvents < 5 {
		t.Fatalf("burn events = %d, want >= 5", res.BurnEvents)
	}
	if res.Captures != 1 || res.Suppressed != int64(res.BurnEvents-1) {
		t.Fatalf("debounce: captures=%d suppressed=%d for %d events, want 1/%d",
			res.Captures, res.Suppressed, res.BurnEvents, res.BurnEvents-1)
	}
	if res.BundlePartial {
		t.Fatal("bundle marked partial with a live gateway")
	}
	if !res.RestartOK {
		t.Fatal("bundle did not survive the store reopen")
	}
	if extra := res.RecorderExtraAllocs(); extra > 0.5 {
		t.Fatalf("armed recorder cost %.1f allocs/op on the predict path, want 0", extra)
	}
	if !strings.Contains(res.Format(), "suppressed") {
		t.Error("Format() missing debounce verdict")
	}
}

func TestProfileRegressionClosedLoop(t *testing.T) {
	res, err := ProfileRegression(300)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.HogFunction, "profileregHogEncode") {
		t.Fatalf("detector named %q, want the injected hog", res.HogFunction)
	}
	if res.HogFactor <= 3 {
		t.Fatalf("hog factor %.1f did not clear the rule threshold", res.HogFactor)
	}
	if res.Bundles != 1 {
		t.Fatalf("bundles = %d, want exactly 1 (debounce)", res.Bundles)
	}
	if res.BundleProfiles == 0 {
		t.Fatal("bundle carried no profiler history")
	}
	if res.FleetProcesses != 2 {
		t.Fatalf("fleet view covers %d processes, want 2", res.FleetProcesses)
	}
	if extra := res.ProfilerExtraAllocs(); extra > 0.5 {
		t.Fatalf("armed profiler cost %.1f allocs/op on the predict path, want 0", extra)
	}
	if !strings.Contains(res.Format(), "armed allocs/op") {
		t.Error("Format() missing the hot-path cost row")
	}
}
