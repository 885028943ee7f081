package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gallery/internal/core"
	"gallery/internal/rules"
	"gallery/internal/uuid"
)

// --- Experiment E4 — paper Figure 4: base-version-id lineage ---

// LineageResult is the reproduced Figure 4: instances grouped under base
// version ids, in training order.
type LineageResult struct {
	Bases map[string][]*core.Instance
}

// LineageFigure4 registers the paper's two base versions, trains one
// instance under demand_conversion and four under supply_cancellation,
// and traverses both lineages.
func LineageFigure4() (*LineageResult, error) {
	env := mustEnv(4)
	res := &LineageResult{Bases: map[string][]*core.Instance{}}
	for _, base := range []string{"demand_conversion", "supply_cancellation"} {
		m, err := env.Reg.RegisterModel(core.ModelSpec{
			BaseVersionID: base, Project: "marketplace", Name: "forecaster",
		})
		if err != nil {
			return nil, err
		}
		n := 1
		if base == "supply_cancellation" {
			n = 4
		}
		for i := 0; i < n; i++ {
			env.Clock.Advance(time.Hour)
			if _, err := env.Reg.UploadInstance(core.InstanceSpec{
				ModelID: m.ID, Name: fmt.Sprintf("iteration-%d", i+1),
			}, []byte(fmt.Sprintf("%s-%d", base, i))); err != nil {
				return nil, err
			}
		}
		lineage, err := env.Reg.Lineage(base)
		if err != nil {
			return nil, err
		}
		res.Bases[base] = lineage
	}
	return res, nil
}

// Format renders the lineage like Figure 4's two columns.
func (r *LineageResult) Format() string {
	var b strings.Builder
	for _, base := range []string{"demand_conversion", "supply_cancellation"} {
		fmt.Fprintf(&b, "base version id %q:\n", base)
		for i, in := range r.Bases[base] {
			fmt.Fprintf(&b, "  %d. %s  (trained %s)\n", i+1, in.ID, in.Created.Format(time.RFC3339))
		}
	}
	return b.String()
}

// --- Experiment E5 — paper Figures 5–7: dependency version propagation ---

// DepSnapshot is one model's state at one step of the walkthrough.
type DepSnapshot struct {
	Model      string
	Latest     string
	Production string
	Cause      core.VersionCause
}

// DepStep is the full graph state after one figure's action.
type DepStep struct {
	Title     string
	Snapshots []DepSnapshot
}

// DependencyFigures replays Figures 5, 6, and 7 exactly and returns the
// version table after each step.
func DependencyFigures() ([]DepStep, error) {
	env := mustEnv(5)
	reg := env.Reg
	register := func(base string, major int, ups ...uuid.UUID) (*core.Model, error) {
		return reg.RegisterModel(core.ModelSpec{
			BaseVersionID: base, Project: "marketplace", InitialMajor: major, Upstreams: ups,
		})
	}
	b, err := register("B", 2)
	if err != nil {
		return nil, err
	}
	c, err := register("C", 3)
	if err != nil {
		return nil, err
	}
	a, err := register("A", 4, b.ID, c.ID)
	if err != nil {
		return nil, err
	}
	x, err := register("X", 7, a.ID)
	if err != nil {
		return nil, err
	}
	y, err := register("Y", 8, a.ID)
	if err != nil {
		return nil, err
	}
	order := []*core.Model{a, b, c, x, y}

	snapshot := func(title string) (DepStep, error) {
		step := DepStep{Title: title}
		for _, m := range order {
			latest, err := reg.LatestVersion(m.ID)
			if err != nil {
				return step, err
			}
			prod, err := reg.ProductionVersion(m.ID)
			if err != nil {
				return step, err
			}
			step.Snapshots = append(step.Snapshots, DepSnapshot{
				Model: m.BaseVersionID, Latest: latest.String(),
				Production: prod.String(), Cause: latest.Cause,
			})
		}
		return step, nil
	}

	var steps []DepStep
	s, err := snapshot("Figure 5: initial graph (X,Y -> A -> B,C)")
	if err != nil {
		return nil, err
	}
	steps = append(steps, s)

	// Figure 6: B's instance updates 2.0 -> 2.1.
	env.Clock.Advance(time.Hour)
	if _, err := reg.UploadInstance(core.InstanceSpec{ModelID: b.ID, Name: "B retrained"}, []byte("b2")); err != nil {
		return nil, err
	}
	s, err = snapshot("Figure 6: after updating B's instance (2.0 -> 2.1)")
	if err != nil {
		return nil, err
	}
	steps = append(steps, s)

	// Figure 7: add D as a dependency of A.
	d, err := register("D", 5)
	if err != nil {
		return nil, err
	}
	order = append(order, d)
	if err := reg.AddDependency(a.ID, d.ID); err != nil {
		return nil, err
	}
	s, err = snapshot("Figure 7: after adding D as a dependency of A")
	if err != nil {
		return nil, err
	}
	steps = append(steps, s)
	return steps, nil
}

// FormatDepSteps renders the walkthrough tables.
func FormatDepSteps(steps []DepStep) string {
	var b strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&b, "%s\n", s.Title)
		fmt.Fprintf(&b, "  %-6s %-8s %-12s %s\n", "model", "latest", "production", "cause of latest")
		for _, snap := range s.Snapshots {
			fmt.Fprintf(&b, "  %-6s %-8s %-12s %s\n", snap.Model, snap.Latest, snap.Production, snap.Cause)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Experiment E6 — paper Figure 8: rule engine workflow ---

// Fig8Result captures both clients of Figure 8: the selection trigger
// (Client 1) and the action trigger on a metric update (Client 2).
type Fig8Result struct {
	// Champion is the instance returned to Client 1.
	Champion uuid.UUID
	// ChampionName is its instance name.
	ChampionName string
	// Deployments lists instances deployed by Client 2's action rule.
	Deployments []uuid.UUID
	// RejectedFirst reports that the first, out-of-threshold metric did
	// not trigger a deployment.
	RejectedFirst bool
	EngineStats   rules.Stats
}

// RuleEngineFigure8 runs the paper's Listing 1 selection rule and Listing
// 2 action rule through the engine's job queue.
func RuleEngineFigure8() (*Fig8Result, error) {
	env := mustEnv(8)
	res := &Fig8Result{}

	m, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "uberx_demand", Project: "forecasting",
		Name: "linear_regression", Domain: "UberX",
	})
	if err != nil {
		return nil, err
	}
	rf, err := env.Reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "uberx_rf", Project: "forecasting",
		Name: "Random Forest", Domain: "UberX",
	})
	if err != nil {
		return nil, err
	}

	// Candidates for selection: three linear_regression instances with
	// varying mae and freshness.
	var candidates []*core.Instance
	for i, mae := range []float64{2.0, 3.5, 9.0} {
		env.Clock.Advance(time.Hour)
		in, err := env.Reg.UploadInstance(core.InstanceSpec{
			ModelID: m.ID, Name: fmt.Sprintf("lr-%d", i),
		}, []byte{byte(i)})
		if err != nil {
			return nil, err
		}
		if _, err := env.Reg.InsertMetric(in.ID, "mae", core.ScopeValidation, mae); err != nil {
			return nil, err
		}
		candidates = append(candidates, in)
	}

	selection := &rules.Rule{
		UUID: "316b3ab4-2509-4ea7-8025-00ca879dac61", Team: "forecasting",
		Name: "listing-1", Kind: rules.KindSelection,
		Given:          `model_name == "linear_regression" && model_domain == "UberX"`,
		When:           `metrics["mae"] < 5`,
		Environment:    "production",
		ModelSelection: "a.created_time > b.created_time",
	}
	action := &rules.Rule{
		UUID: "4365754a-92bb-4421-a1be-00d7d87f77a0", Team: "forecasting",
		Name: "listing-2", Kind: rules.KindAction,
		Given:       `model_domain == "UberX" && model_name == "Random Forest"`,
		When:        "metrics.bias <= 0.1 && metrics.bias >= -0.1",
		Environment: "production",
		Actions:     []rules.ActionRef{{Action: "forecasting_deployment"}},
	}
	if _, err := env.Repo.Commit("forecasting", "listings 1+2", []*rules.Rule{selection, action}, nil); err != nil {
		return nil, err
	}

	env.Engine.RegisterAction("forecasting_deployment", func(ctx *rules.ActionContext) error {
		res.Deployments = append(res.Deployments, ctx.Instance.ID)
		return nil
	})
	env.Engine.Start(2)
	defer env.Engine.Stop()

	// Client 1: direct selection request. The freshest candidate fails the
	// mae threshold, so the middle one must win.
	champ, err := env.Engine.SelectModel(selection.UUID, core.InstanceFilter{})
	if err != nil {
		return nil, err
	}
	res.Champion = champ.ID
	res.ChampionName = champ.Name
	if champ.ID != candidates[1].ID {
		return nil, fmt.Errorf("fig8: champion %s, want the freshest qualifying candidate", champ.Name)
	}

	// Client 2: metric updates trigger the action rule.
	env.Clock.Advance(time.Hour)
	rfIn, err := env.Reg.UploadInstance(core.InstanceSpec{ModelID: rf.ID, Name: "Random Forest"}, []byte("rf"))
	if err != nil {
		return nil, err
	}
	if _, err := env.Reg.InsertMetric(rfIn.ID, "bias", core.ScopeValidation, 0.7); err != nil {
		return nil, err
	}
	env.Engine.MetricUpdatedCtx(context.Background(), rfIn.ID)
	env.Engine.Flush()
	res.RejectedFirst = len(res.Deployments) == 0

	env.Clock.Advance(time.Hour)
	if _, err := env.Reg.InsertMetric(rfIn.ID, "bias", core.ScopeValidation, 0.03); err != nil {
		return nil, err
	}
	env.Engine.MetricUpdatedCtx(context.Background(), rfIn.ID)
	env.Engine.Flush()

	res.EngineStats = env.Engine.Stats()
	return res, nil
}

// Format renders the Figure 8 outcome.
func (r *Fig8Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Client 1 (selection trigger): champion = %s (%s)\n", r.ChampionName, r.Champion)
	fmt.Fprintf(&b, "Client 2 (metric-update trigger): out-of-threshold metric rejected = %v\n", r.RejectedFirst)
	fmt.Fprintf(&b, "Client 2 deployments after in-threshold metric: %d\n", len(r.Deployments))
	fmt.Fprintf(&b, "engine stats: %+v\n", r.EngineStats)
	return b.String()
}
