// Command benchharness regenerates every table, figure, and quantitative
// claim from the paper's evaluation (DESIGN.md experiments E1–E15) and
// prints paper-style rows. Run all experiments, or pick some:
//
//	benchharness                          # everything
//	benchharness -exp table1 -exp fig8    # a subset
//	benchharness -exp scale -full         # include the 1M-instance tier
//	benchharness -exp fig8 -metrics       # dump the metric registry after
//
// Experiment names: table1, fig1, fig4, fig5-7, fig8, scale, switching,
// deployment, simulation, drift, skew, consistency, classes, reposition,
// serving, onlinedrift, auditchurn, relquery, multitenant, sloburn,
// incidentcapture, profilereg, tiered.
//
// Gates: some experiments also emit machine-independent metrics
// (allocs/op, rows scanned, exact counts, detector verdicts) in the
// internal/benchfmt format, each with its own direction and tolerance.
//
//	benchharness -exp serving -bench-dir .   # write BENCH_serving.json
//	benchharness -exp serving -baseline .    # compare vs checked-in file
//
// With -baseline, each experiment's metrics are compared against the
// committed BENCH_<exp>.json and any metric beyond its band, or missing,
// fails the run. Wall-clock performance is measured over real sockets by
// the bench/ module, not here. See DESIGN.md "Perf trajectory".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gallery/internal/benchfmt"
	"gallery/internal/experiments"
	"gallery/internal/obs"
)

type expFlag []string

func (f *expFlag) String() string { return strings.Join(*f, ",") }
func (f *expFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// experiment is one runnable evaluation item. run returns the paper-style
// text plus optional benchfmt gates (nil for purely qualitative
// experiments, which then have no BENCH file).
type experiment struct {
	name  string
	title string
	run   func() (string, []benchfmt.Metric, error)
}

// text adapts a metrics-free experiment.
func text(f func() (string, error)) func() (string, []benchfmt.Metric, error) {
	return func() (string, []benchfmt.Metric, error) {
		out, err := f()
		return out, nil, err
	}
}

func main() {
	var picks expFlag
	flag.Var(&picks, "exp", "experiment to run (repeatable; default all)")
	full := flag.Bool("full", false, "run the expensive full-scale tiers (1M instances)")
	metrics := flag.Bool("metrics", false, "dump the process metric registry snapshot after the experiments")
	benchDir := flag.String("bench-dir", "", "directory to write BENCH_<exp>.json baselines into")
	baseline := flag.String("baseline", "", "directory holding BENCH_<exp>.json baselines to compare against; regressions fail the run")
	flag.Parse()

	scaleTiers := []int{10_000, 100_000}
	if *full {
		scaleTiers = append(scaleTiers, 1_000_000)
	}

	all := []experiment{
		{"table1", "E1 / Table 1 — feature comparison (Gallery row measured by probes)", text(func() (string, error) {
			rows, err := experiments.Table1()
			if err != nil {
				return "", err
			}
			return experiments.FormatTable1(rows), nil
		})},
		{"fig1", "E2 + E11 / Figure 1 — model lifecycle driven end to end (incl. drift-retrain loop)", text(func() (string, error) {
			res, err := experiments.Lifecycle()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"fig4", "E4 / Figure 4 — base-version-id lineage", text(func() (string, error) {
			res, err := experiments.LineageFigure4()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"fig5-7", "E5 / Figures 5–7 — dependency graph version propagation", text(func() (string, error) {
			steps, err := experiments.DependencyFigures()
			if err != nil {
				return "", err
			}
			return experiments.FormatDepSteps(steps), nil
		})},
		{"fig8", "E6 / Figure 8 — rule engine workflow (both clients)", text(func() (string, error) {
			res, err := experiments.RuleEngineFigure8()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"scale", "E7 — metadata-layer scalability toward the paper's 1M instances", func() (string, []benchfmt.Metric, error) {
			rs, err := experiments.Scale(scaleTiers)
			if err != nil {
				return "", nil, err
			}
			return experiments.FormatScale(rs), experiments.ScaleBenchMetrics(rs), nil
		}},
		{"switching", "E8 / §4.2 — dynamic model switching vs static served model", text(func() (string, error) {
			res, err := experiments.DynamicSwitching(3, 11)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"deployment", "E9 + E14 / §4.2, §4 — deployment and daily management cost", text(func() (string, error) {
			res, err := experiments.DeploymentCost(100)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"simulation", "E10 / §4.3 — simulation platform resource savings", text(func() (string, error) {
			res, err := experiments.SimulationSavings()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"drift", "E11 / §3.6 — drift detection triggers retraining (subset of fig1)", text(func() (string, error) {
			res, err := experiments.Lifecycle()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("pre-shift MAPE %.2f%% -> drifted %.2f%% (degradation %.0f%%, detector fired=%v)\n"+
				"rule engine retrain triggered=%v; recovered MAPE %.2f%%\n",
				res.PreShiftMAPE, res.DriftedMAPE, res.Drift.Degradation*100, res.Drift.Drifted,
				res.RetrainTriggered, res.RecoveredMAPE), nil
		})},
		{"skew", "E12 / §3.6 — production skew detection", text(func() (string, error) {
			res, err := experiments.SkewDetection()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"consistency", "E13 / §3.5 — blob-first write ordering under injected failures", text(func() (string, error) {
			res, err := experiments.WriteOrdering(2000, 7, 11)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"classes", "E16 (extension) / §4.2 — per-city model-class championship", text(func() (string, error) {
			res, err := experiments.ModelClassChampionship()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"reposition", "E17 (extension) / §4.2 — forecast-driven driver repositioning", text(func() (string, error) {
			res, err := experiments.DriverRepositioning(3)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		})},
		{"serving", "E18 (extension) / §2 — prediction serving gateway: hot swap under fire, allocation-free predict", func() (string, []benchfmt.Metric, error) {
			res, err := experiments.ServingGateway(8, 5000)
			if err != nil {
				return "", nil, err
			}
			return res.Format(), res.BenchMetrics(), nil
		}},
		{"onlinedrift", "E19 (extension) / §3.6 — continuous health: serving sketches to online drift detection", func() (string, []benchfmt.Metric, error) {
			res, err := experiments.OnlineDrift(4, 4)
			if err != nil {
				return "", nil, err
			}
			if res.DegradedAt == 0 {
				return "", nil, fmt.Errorf("onlinedrift: monitor never flipped to degraded")
			}
			if res.RetrainFired == 0 {
				return "", nil, fmt.Errorf("onlinedrift: retrain rule never fired")
			}
			return res.Format(), res.BenchMetrics(), nil
		}},
		{"auditchurn", "E20 (extension) / §3 — audit trail stays bounded under promotion churn", func() (string, []benchfmt.Metric, error) {
			res, err := experiments.AuditChurn(400, 16)
			if err != nil {
				return "", nil, err
			}
			if !res.Bounded() {
				return "", nil, fmt.Errorf("auditchurn: trail unbounded: peak %d events for keep=%d", res.PeakLen, res.Keep)
			}
			if res.Pruned == 0 {
				return "", nil, fmt.Errorf("auditchurn: retention never pruned anything over %d rounds", res.Rounds)
			}
			return res.Format(), res.BenchMetrics(), nil
		}},
		{"relquery", "E21 (extension) / §3.5 — relstore query planner hot paths", func() (string, []benchfmt.Metric, error) {
			res, err := experiments.RelQuery(20_000)
			if err != nil {
				return "", nil, err
			}
			return res.Format(), res.BenchMetrics(), nil
		}},
		{"multitenant", "E22 (extension) — multi-tenant control plane: auth hot-path cost, noisy-neighbor isolation", func() (string, []benchfmt.Metric, error) {
			res, err := experiments.MultiTenant(2000)
			if err != nil {
				return "", nil, err
			}
			if extra := res.PredictExtraAllocs(); extra > 0.5 {
				return "", nil, fmt.Errorf("multitenant: auth added %.1f allocs/op on the predict path (want 0)", extra)
			}
			if res.QuietOKRatio() != 1 {
				return "", nil, fmt.Errorf("multitenant: quiet tenant lost requests to the noisy tenant (ok ratio %.2f)", res.QuietOKRatio())
			}
			return res.Format(), res.BenchMetrics(), nil
		}},
		{"sloburn", "E23 (extension) — per-tenant SLO engine: burn-rate detection, rule wiring, isolation", func() (string, []benchfmt.Metric, error) {
			res, err := experiments.Sloburn(2000)
			if err != nil {
				return "", nil, err
			}
			if res.QuietBreached || res.QuietBudget < 1 {
				return "", nil, fmt.Errorf("sloburn: quiet tenant's budget damaged by the victim's outage (budget %.3f breached=%v)", res.QuietBudget, res.QuietBreached)
			}
			if extra := res.REDExtraAllocs(); extra > 0.5 {
				return "", nil, fmt.Errorf("sloburn: auth+RED added %.1f allocs/op on the predict path (want 0)", extra)
			}
			return res.Format(), res.BenchMetrics(), nil
		}},
		{"incidentcapture", "E24 (extension) — incident flight recorder: debounced capture, cross-process bundle, WAL durability", func() (string, []benchfmt.Metric, error) {
			res, err := experiments.IncidentCapture(2000)
			if err != nil {
				return "", nil, err
			}
			if res.Captures != 1 {
				return "", nil, fmt.Errorf("incidentcapture: %d bundles persisted for one scope across %d burn events (want exactly 1)", res.Captures, res.BurnEvents)
			}
			if res.BundlePartial {
				return "", nil, fmt.Errorf("incidentcapture: bundle marked partial with a live gateway")
			}
			if !res.RestartOK {
				return "", nil, fmt.Errorf("incidentcapture: bundle did not survive the store reopen")
			}
			if extra := res.RecorderExtraAllocs(); extra > 0.5 {
				return "", nil, fmt.Errorf("incidentcapture: armed recorder added %.1f allocs/op on the predict path (want 0)", extra)
			}
			return res.Format(), res.BenchMetrics(), nil
		}},
		{"profilereg", "E25 (extension) — continuous profiling: baseline detection, rule-driven capture, fleet view", func() (string, []benchfmt.Metric, error) {
			res, err := experiments.ProfileRegression(2000)
			if err != nil {
				return "", nil, err
			}
			if !strings.Contains(res.HogFunction, "profileregHogEncode") {
				return "", nil, fmt.Errorf("profilereg: detector named %q, want the injected hog", res.HogFunction)
			}
			if res.Bundles != 1 {
				return "", nil, fmt.Errorf("profilereg: %d bundles persisted (want exactly 1)", res.Bundles)
			}
			if res.BundleProfiles == 0 {
				return "", nil, fmt.Errorf("profilereg: bundle carried no profiler history")
			}
			if extra := res.ProfilerExtraAllocs(); extra > 0.5 {
				return "", nil, fmt.Errorf("profilereg: armed profiler added %.1f allocs/op on the predict path (want 0)", extra)
			}
			return res.Format(), res.BenchMetrics(), nil
		}},
		{"tiered", "E15 / §6.3 — tiered service offering", text(func() (string, error) {
			rs, err := experiments.TieredOnboarding()
			if err != nil {
				return "", err
			}
			return experiments.FormatTiers(rs), nil
		})},
	}

	selected := map[string]bool{}
	for _, p := range picks {
		selected[p] = true
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.name] = true
	}
	for p := range selected {
		if !known[p] {
			fmt.Fprintf(os.Stderr, "benchharness: unknown experiment %q\n", p)
			os.Exit(2)
		}
	}

	failed, regressed := 0, 0
	for _, e := range all {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.title)
		start := time.Now()
		out, ms, err := e.run()
		if err != nil {
			fmt.Printf("FAILED: %v\n\n", err)
			failed++
			continue
		}
		fmt.Print(out)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
		if len(ms) == 0 {
			continue
		}
		cur := benchfmt.Result{Experiment: e.name, Metrics: ms}
		if *benchDir != "" {
			if err := benchfmt.Write(*benchDir, cur); err != nil {
				fmt.Fprintf(os.Stderr, "benchharness: %v\n", err)
				failed++
				continue
			}
			fmt.Printf("wrote %s\n\n", benchfmt.FileName(e.name))
		}
		if *baseline != "" {
			base, ok, err := benchfmt.LoadBaseline(*baseline, e.name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchharness: %v\n", err)
				failed++
				continue
			}
			if !ok {
				fmt.Printf("no baseline %s; skipping comparison\n\n", benchfmt.FileName(e.name))
				continue
			}
			deltas, bad := benchfmt.Compare(base, cur)
			fmt.Print(benchfmt.FormatDeltas(e.name, deltas))
			if bad {
				fmt.Printf("REGRESSED vs %s\n", benchfmt.FileName(e.name))
				regressed++
			}
			fmt.Println()
		}
	}
	if *metrics {
		fmt.Println("=== metrics: process registry snapshot ===")
		if err := obs.Default.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchharness: dump metrics: %v\n", err)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchharness: %d experiment(s) regressed beyond tolerance\n", regressed)
	}
	if failed > 0 || regressed > 0 {
		os.Exit(1)
	}
}
