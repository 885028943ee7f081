package rules

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

type harness struct {
	g    *core.Registry
	repo *Repo
	eng  *Engine
	clk  *clock.Mock
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	clk := clock.NewMock(t0)
	g, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := NewRepo(clk)
	return &harness{g: g, repo: repo, eng: NewEngine(g, repo, clk), clk: clk}
}

func (h *harness) model(t *testing.T, name, domain string) *core.Model {
	t.Helper()
	m, err := h.g.RegisterModel(core.ModelSpec{
		BaseVersionID: "bv-" + name,
		Project:       "forecasting",
		Name:          name,
		Domain:        domain,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (h *harness) upload(t *testing.T, m *core.Model, city string) *core.Instance {
	t.Helper()
	h.clk.Advance(time.Minute)
	in, err := h.g.UploadInstance(core.InstanceSpec{ModelID: m.ID, City: city, Name: m.Name}, []byte("blob"))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func (h *harness) commit(t *testing.T, rules ...*Rule) {
	t.Helper()
	if _, err := h.repo.Commit("tester", "add rules", rules, nil); err != nil {
		t.Fatal(err)
	}
}

// listing1 is the model-selection rule of paper Listing 1, with the
// freshest-first comparator.
func listing1() *Rule {
	return &Rule{
		UUID:           "316b3ab4-2509-4ea7-8025-00ca879dac61",
		Team:           "forecasting",
		Name:           "select-fresh-lr",
		Kind:           KindSelection,
		Given:          `model_name == "linear_regression" && model_domain == "UberX"`,
		When:           `metrics["mae"] < 5`,
		Environment:    "production",
		ModelSelection: "a.created_time > b.created_time",
	}
}

// listing2 is the action rule of paper Listing 2: deploy when bias is in
// [-0.1, 0.1].
func listing2() *Rule {
	return &Rule{
		UUID:        "4365754a-92bb-4421-a1be-00d7d87f77a0",
		Team:        "forecasting",
		Name:        "deploy-on-bias",
		Kind:        KindAction,
		Given:       `model_domain == "UberX" && model_name == "Random Forest"`,
		When:        `metrics.bias <= 0.1 && metrics.bias >= -0.1`,
		Environment: "production",
		Actions:     []ActionRef{{Action: "forecasting_deployment"}},
	}
}

// --- rule validation ---

func TestValidateAcceptsPaperListings(t *testing.T) {
	for _, r := range []*Rule{listing1(), listing2()} {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", r.Name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []*Rule{
		{},                     // no uuid
		{UUID: "u"},            // no team
		{UUID: "u", Team: "t"}, // no kind
		{UUID: "u", Team: "t", Kind: "bogus"},
		{UUID: "u", Team: "t", Kind: KindSelection},                                      // no comparator
		{UUID: "u", Team: "t", Kind: KindSelection, ModelSelection: "a.created >"},       // bad expr
		{UUID: "u", Team: "t", Kind: KindSelection, ModelSelection: "true", When: "1 +"}, // bad when
		{UUID: "u", Team: "t", Kind: KindAction},                                         // no actions
		{UUID: "u", Team: "t", Kind: KindAction, Actions: []ActionRef{{}}},               // unnamed action
		{UUID: "u", Team: "t", Kind: KindAction, Actions: []ActionRef{{Action: "x"}}, ModelSelection: "true"},
		{UUID: "u", Team: "t", Kind: KindSelection, ModelSelection: "true", Actions: []ActionRef{{Action: "x"}}},
	}
	for i, r := range cases {
		if err := r.Validate(); !errors.Is(err, ErrInvalidRule) {
			t.Errorf("case %d: Validate = %v, want ErrInvalidRule", i, err)
		}
	}
}

func TestParseRuleJSON(t *testing.T) {
	data := []byte(`{
		"team": "forecasting",
		"uuid": "316b3ab4-2509-4ea7-8025-00ca879dac61",
		"name": "select",
		"kind": "selection",
		"given": "model_domain == 'UberX'",
		"when": "metrics['r2'] <= 0.9",
		"environment": "production",
		"model_selection": "a.created_time > b.created_time"
	}`)
	r, err := ParseRule(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindSelection || r.Team != "forecasting" {
		t.Fatalf("parsed = %+v", r)
	}
	if _, err := ParseRule([]byte(`{"uuid":`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestWatchedIdents(t *testing.T) {
	r := listing2()
	ids := r.WatchedIdents()
	want := map[string]bool{"model_domain": true, "model_name": true, "metrics": true}
	if len(ids) != len(want) {
		t.Fatalf("WatchedIdents = %v", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected watched ident %q", id)
		}
	}
}

// --- repo ---

func TestRepoCommitAndActive(t *testing.T) {
	h := newHarness(t)
	c1, err := h.repo.Commit("alice", "add selection", []*Rule{listing1()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Hash == "" {
		t.Fatal("commit has no hash")
	}
	c2, err := h.repo.Commit("bob", "add action", []*Rule{listing2()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Hash == c1.Hash {
		t.Fatal("distinct commits share a hash")
	}
	if got := h.repo.Active(); len(got) != 2 {
		t.Fatalf("active = %d rules", len(got))
	}
	if got := h.repo.ActiveByTeam("forecasting"); len(got) != 2 {
		t.Fatalf("by team = %d rules", len(got))
	}
	if got := h.repo.ActiveByTeam("other"); len(got) != 0 {
		t.Fatalf("other team = %d rules", len(got))
	}
}

func TestRepoValidationGate(t *testing.T) {
	h := newHarness(t)
	bad := listing1()
	bad.ModelSelection = "a.created >" // syntax error
	if _, err := h.repo.Commit("alice", "bad", []*Rule{bad}, nil); !errors.Is(err, ErrInvalidRule) {
		t.Fatalf("err = %v", err)
	}
	if len(h.repo.Active()) != 0 {
		t.Fatal("invalid rule landed")
	}
	if len(h.repo.History()) != 0 {
		t.Fatal("failed commit recorded")
	}
}

func TestRepoUpdateAndDelete(t *testing.T) {
	h := newHarness(t)
	r := listing1()
	h.commit(t, r)
	upd := listing1()
	upd.When = `metrics["mae"] < 3`
	h.commit(t, upd)
	got, ok := h.repo.Get(r.UUID)
	if !ok || got.When != `metrics["mae"] < 3` {
		t.Fatalf("after update: %+v", got)
	}
	if _, err := h.repo.Commit("alice", "rm", nil, []string{r.UUID}); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.repo.Get(r.UUID); ok {
		t.Fatal("deleted rule still active")
	}
	if _, err := h.repo.Commit("alice", "rm again", nil, []string{r.UUID}); err == nil {
		t.Fatal("deleting unknown rule succeeded")
	}
}

func TestRepoRollback(t *testing.T) {
	h := newHarness(t)
	h.commit(t, listing1())
	c1 := h.repo.History()[0]
	h.commit(t, listing2())
	// Roll back to the one-rule state.
	if _, err := h.repo.Rollback(c1.Hash, "alice"); err != nil {
		t.Fatal(err)
	}
	active := h.repo.Active()
	if len(active) != 1 || active[0].UUID != listing1().UUID {
		t.Fatalf("after rollback: %v", active)
	}
	// History is append-only: 3 commits now.
	if len(h.repo.History()) != 3 {
		t.Fatalf("history = %d commits", len(h.repo.History()))
	}
	if _, err := h.repo.Rollback("deadbeef", "x"); !errors.Is(err, ErrNoCommit) {
		t.Fatalf("rollback to unknown hash = %v", err)
	}
}

// --- selection rules (Fig. 8, Client 1) ---

func TestSelectModelFreshestQualifying(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "linear_regression", "UberX")
	old := h.upload(t, m, "sf")
	mid := h.upload(t, m, "sf")
	fresh := h.upload(t, m, "sf")
	// mae: old good, mid good, fresh bad -> mid should win (freshest good).
	for in, mae := range map[*core.Instance]float64{old: 2.0, mid: 3.0, fresh: 9.0} {
		if _, err := h.g.InsertMetric(in.ID, "mae", core.ScopeValidation, mae); err != nil {
			t.Fatal(err)
		}
	}
	h.commit(t, listing1())
	got, err := h.eng.SelectModel(listing1().UUID, core.InstanceFilter{City: "sf"})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != mid.ID {
		t.Fatalf("selected %s, want mid %s", got.ID, mid.ID)
	}
}

func TestSelectModelNoCandidate(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "linear_regression", "UberX")
	in := h.upload(t, m, "sf")
	if _, err := h.g.InsertMetric(in.ID, "mae", core.ScopeValidation, 99); err != nil {
		t.Fatal(err)
	}
	h.commit(t, listing1())
	if _, err := h.eng.SelectModel(listing1().UUID, core.InstanceFilter{}); err == nil {
		t.Fatal("selection succeeded with no qualifying candidate")
	}
}

func TestSelectModelSkipsWrongDomain(t *testing.T) {
	h := newHarness(t)
	mx := h.model(t, "linear_regression", "UberX")
	mp := h.model(t, "linear_regression", "UberPool")
	inX := h.upload(t, mx, "sf")
	inP := h.upload(t, mp, "sf") // fresher but wrong domain
	for _, in := range []*core.Instance{inX, inP} {
		if _, err := h.g.InsertMetric(in.ID, "mae", core.ScopeValidation, 1); err != nil {
			t.Fatal(err)
		}
	}
	h.commit(t, listing1())
	got, err := h.eng.SelectModel(listing1().UUID, core.InstanceFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != inX.ID {
		t.Fatal("selection crossed the Given domain filter")
	}
}

func TestSelectModelUnknownRule(t *testing.T) {
	h := newHarness(t)
	if _, err := h.eng.SelectModel("nope", core.InstanceFilter{}); err == nil {
		t.Fatal("unknown rule selected")
	}
}

func TestSelectModelRejectsActionRule(t *testing.T) {
	h := newHarness(t)
	h.commit(t, listing2())
	if _, err := h.eng.SelectModel(listing2().UUID, core.InstanceFilter{}); err == nil {
		t.Fatal("action rule used for selection")
	}
}

// --- action rules (Fig. 8, Client 2) ---

// TestRuleEngineFigure8 reproduces the paper's Figure 8 workflow: an
// action rule registered in the repo fires when a metric update satisfies
// its condition, executing the deployment callback. (Experiment E6.)
func TestRuleEngineFigure8(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")

	var deployed []uuid.UUID
	h.eng.RegisterAction("forecasting_deployment", func(ctx *ActionContext) error {
		deployed = append(deployed, ctx.Instance.ID)
		return nil
	})
	h.commit(t, listing2())

	// Out-of-threshold bias: no deployment.
	if _, err := h.g.InsertMetric(in.ID, "bias", core.ScopeValidation, 0.5); err != nil {
		t.Fatal(err)
	}
	h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	if len(deployed) != 0 {
		t.Fatal("deployed despite bias out of range")
	}

	// In-threshold bias reported later: deployment fires.
	h.clk.Advance(time.Minute)
	if _, err := h.g.InsertMetric(in.ID, "bias", core.ScopeValidation, 0.05); err != nil {
		t.Fatal(err)
	}
	h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	if len(deployed) != 1 || deployed[0] != in.ID {
		t.Fatalf("deployed = %v", deployed)
	}
	st := h.eng.Stats()
	if st.EventsTriggered != 2 || st.ActionsRun != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestActionRuleAsyncWorkers(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	count := 0
	done := make(chan struct{}, 64)
	h.eng.RegisterAction("forecasting_deployment", func(ctx *ActionContext) error {
		done <- struct{}{}
		return nil
	})
	h.commit(t, listing2())
	h.eng.Start(4)
	defer h.eng.Stop()

	const n = 16
	for i := 0; i < n; i++ {
		in := h.upload(t, m, fmt.Sprintf("city-%d", i))
		if _, err := h.g.InsertMetric(in.ID, "bias", core.ScopeValidation, 0.01); err != nil {
			t.Fatal(err)
		}
		h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	}
	h.eng.Flush()
	close(done)
	for range done {
		count++
	}
	if count != n {
		t.Fatalf("deployments = %d, want %d", count, n)
	}
}

func TestActionErrorsAlert(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	h.eng.RegisterAction("forecasting_deployment", func(ctx *ActionContext) error {
		return errors.New("config push failed")
	})
	h.commit(t, listing2())
	if _, err := h.g.InsertMetric(in.ID, "bias", core.ScopeValidation, 0.0); err != nil {
		t.Fatal(err)
	}
	h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	alerts := h.eng.Alerts()
	if len(alerts) != 1 || alerts[0].Action != "forecasting_deployment" {
		t.Fatalf("alerts = %v", alerts)
	}
	if h.eng.Stats().ActionErrors != 1 {
		t.Fatalf("stats = %+v", h.eng.Stats())
	}
}

func TestUnknownActionAlerts(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	h.commit(t, listing2()) // forecasting_deployment never registered
	if _, err := h.g.InsertMetric(in.ID, "bias", core.ScopeValidation, 0.0); err != nil {
		t.Fatal(err)
	}
	h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	if len(h.eng.Alerts()) != 1 {
		t.Fatalf("alerts = %v", h.eng.Alerts())
	}
}

func TestBuiltinAlertAction(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	r := listing2()
	r.Actions = []ActionRef{{Action: "alert", Params: map[string]any{"message": "bias back in range"}}}
	h.commit(t, r)
	if _, err := h.g.InsertMetric(in.ID, "bias", core.ScopeValidation, 0.0); err != nil {
		t.Fatal(err)
	}
	h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	alerts := h.eng.Alerts()
	if len(alerts) != 1 || alerts[0].Message != "bias back in range" {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestEnvironmentScoping(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	fired := 0
	h.eng.RegisterAction("forecasting_deployment", func(ctx *ActionContext) error {
		fired++
		return nil
	})
	r := listing2()
	r.Environment = "staging"
	h.commit(t, r)
	if _, err := h.g.InsertMetric(in.ID, "bias", core.ScopeValidation, 0.0); err != nil {
		t.Fatal(err)
	}
	h.eng.MetricUpdatedCtx(context.Background(), in.ID) // engine is in production scope
	if fired != 0 {
		t.Fatal("staging rule fired in production engine")
	}
	h.eng.Environment = "staging"
	h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	if fired != 1 {
		t.Fatal("staging rule did not fire in staging engine")
	}
}

func TestMetadataUpdateTrigger(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	fired := 0
	h.eng.RegisterAction("noop", func(ctx *ActionContext) error { fired++; return nil })
	r := &Rule{
		UUID: "r-city", Team: "t", Kind: KindAction,
		Given:   `city == "sf"`,
		Actions: []ActionRef{{Action: "noop"}},
	}
	h.commit(t, r)
	h.eng.MetadataUpdatedCtx(context.Background(), in.ID, "city")
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// Updating a field the rule does not watch: no evaluation.
	h.eng.MetadataUpdatedCtx(context.Background(), in.ID, "framework")
	if fired != 1 {
		t.Fatalf("fired = %d after unwatched field", fired)
	}
}

// Rules that reference missing metrics are simply "condition not met",
// never a crash (strict evaluator surfaced as non-match).
func TestMissingMetricIsNotMet(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	fired := 0
	h.eng.RegisterAction("forecasting_deployment", func(ctx *ActionContext) error { fired++; return nil })
	h.commit(t, listing2())
	h.eng.MetricUpdatedCtx(context.Background(), in.ID) // no bias metric reported at all
	if fired != 0 {
		t.Fatal("rule fired without its metric")
	}
}
