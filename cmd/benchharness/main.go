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
// serving, onlinedrift, auditchurn, relquery, multitenant, tiered.
//
// The harness prints; it does not judge. The exact counts, planner
// verdicts and allocs/op figures these runs produce are asserted, at the
// same parameters, by the tests in internal/experiments (DESIGN.md
// "Gates"). multitenant (E22) boots galleryd and galleryserve from their
// flags, as internal/daemon assembles them, and measures through their
// handlers; the other experiments drive the libraries in-process.
// Wall-clock performance is measured over real sockets by the bench/
// module, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gallery/internal/experiments"
	"gallery/internal/obs"
)

type expFlag []string

func (f *expFlag) String() string { return strings.Join(*f, ",") }
func (f *expFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// experiment is one runnable evaluation item; run returns its paper-style
// text.
type experiment struct {
	name  string
	title string
	run   func() (string, error)
}

func main() {
	var picks expFlag
	flag.Var(&picks, "exp", "experiment to run (repeatable; default all)")
	full := flag.Bool("full", false, "run the expensive full-scale tiers (1M instances)")
	metrics := flag.Bool("metrics", false, "dump the process metric registry snapshot after the experiments")
	flag.Parse()

	scaleTiers := []int{10_000, 100_000}
	if *full {
		scaleTiers = append(scaleTiers, 1_000_000)
	}

	all := []experiment{
		{"table1", "E1 / Table 1 — feature comparison (Gallery row measured by probes)", func() (string, error) {
			rows, err := experiments.Table1()
			if err != nil {
				return "", err
			}
			return experiments.FormatTable1(rows), nil
		}},
		{"fig1", "E2 + E11 / Figure 1 — model lifecycle driven end to end (incl. drift-retrain loop)", func() (string, error) {
			res, err := experiments.Lifecycle()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"fig4", "E4 / Figure 4 — base-version-id lineage", func() (string, error) {
			res, err := experiments.LineageFigure4()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"fig5-7", "E5 / Figures 5–7 — dependency graph version propagation", func() (string, error) {
			steps, err := experiments.DependencyFigures()
			if err != nil {
				return "", err
			}
			return experiments.FormatDepSteps(steps), nil
		}},
		{"fig8", "E6 / Figure 8 — rule engine workflow (both clients)", func() (string, error) {
			res, err := experiments.RuleEngineFigure8()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"scale", "E7 — metadata-layer scalability toward the paper's 1M instances", func() (string, error) {
			rs, err := experiments.Scale(scaleTiers)
			if err != nil {
				return "", err
			}
			return experiments.FormatScale(rs), nil
		}},
		{"switching", "E8 / §4.2 — dynamic model switching vs static served model", func() (string, error) {
			res, err := experiments.DynamicSwitching(3, 11)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"deployment", "E9 + E14 / §4.2, §4 — deployment and daily management cost", func() (string, error) {
			res, err := experiments.DeploymentCost(100)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"simulation", "E10 / §4.3 — simulation platform resource savings", func() (string, error) {
			res, err := experiments.SimulationSavings()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"drift", "E11 / §3.6 — drift detection triggers retraining (subset of fig1)", func() (string, error) {
			res, err := experiments.Lifecycle()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("pre-shift MAPE %.2f%% -> drifted %.2f%% (degradation %.0f%%, detector fired=%v)\n"+
				"rule engine retrain triggered=%v; recovered MAPE %.2f%%\n",
				res.PreShiftMAPE, res.DriftedMAPE, res.Drift.Degradation*100, res.Drift.Drifted,
				res.RetrainTriggered, res.RecoveredMAPE), nil
		}},
		{"skew", "E12 / §3.6 — production skew detection", func() (string, error) {
			res, err := experiments.SkewDetection()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"consistency", "E13 / §3.5 — blob-first write ordering under injected failures", func() (string, error) {
			res, err := experiments.WriteOrdering(2000, 7, 11)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"classes", "E16 (extension) / §4.2 — per-city model-class championship", func() (string, error) {
			res, err := experiments.ModelClassChampionship()
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"reposition", "E17 (extension) / §4.2 — forecast-driven driver repositioning", func() (string, error) {
			res, err := experiments.DriverRepositioning(3)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"serving", "E18 (extension) / §2 — prediction serving gateway: hot swap under fire, allocation-free predict", func() (string, error) {
			res, err := experiments.ServingGateway(8, 5000)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"onlinedrift", "E19 (extension) / §3.6 — continuous health: serving sketches to online drift detection", func() (string, error) {
			res, err := experiments.OnlineDrift(4, 4)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"auditchurn", "E20 (extension) / §3 — audit trail stays bounded under promotion churn", func() (string, error) {
			res, err := experiments.AuditChurn(400, 16)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"relquery", "E21 (extension) / §3.5 — relstore query planner hot paths", func() (string, error) {
			res, err := experiments.RelQuery(20_000)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"multitenant", "E22 (extension) — multi-tenant control plane on the shipped daemons: auth hot-path cost, noisy-neighbor isolation", func() (string, error) {
			res, err := experiments.MultiTenant(2000)
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"tiered", "E15 / §6.3 — tiered service offering", func() (string, error) {
			rs, err := experiments.TieredOnboarding()
			if err != nil {
				return "", err
			}
			return experiments.FormatTiers(rs), nil
		}},
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

	failed := 0
	for _, e := range all {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.title)
		start := time.Now()
		out, err := e.run()
		if err != nil {
			fmt.Printf("FAILED: %v\n\n", err)
			failed++
			continue
		}
		fmt.Print(out)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}
	if *metrics {
		fmt.Println("=== metrics: process registry snapshot ===")
		if err := obs.Default.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchharness: dump metrics: %v\n", err)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
