package server

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/health"
	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/serve"
	"gallery/internal/uuid"
)

// TestAuditTrailEndToEnd drives a model's whole lifecycle over real HTTP —
// register, two uploads (each auto-promoting its retrained version), a
// gateway hot swap, a metric-triggered rule rollback, a
// health-degradation-driven deprecation — then reconstructs the full story
// from GET /v1/audit/entity/{model}: every state change present, in write
// order, trace IDs resolvable at /v1/debug/traces/{id}, and
// /v1/debug/logs carrying correlated lines.
func TestAuditTrailEndToEnd(t *testing.T) {
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(31),
	})
	if err != nil {
		t.Fatal(err)
	}
	repo := rules.NewRepo(clk)
	eng := rules.NewEngine(reg, repo, clk)
	mon := health.New(reg, health.Config{
		ReferenceWindows: 2,
		LiveWindows:      2,
		Interval:         -1,
		Obs:              obs.NewRegistry(),
		Events:           eng.Event,
	})
	tracer := trace.New(trace.Options{Service: "galleryd", Sampler: trace.Always(), Capacity: 256})
	srv := NewWith(reg, repo, eng, Options{
		Obs:    obs.NewRegistry(),
		Health: mon,
		Tracer: tracer,
		Logs:   obslog.NewRing(256),
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := client.NewWith(ts.URL, client.Options{HTTP: ts.Client(), Actor: "e2e-test"})

	// Standing policy: good offline error promotes the new instance;
	// hard drift deprecates whatever is serving.
	if _, err := repo.Commit("oncall", "lifecycle rules", []*rules.Rule{{
		UUID: "5dfc0f60-0000-4000-8000-0000000000a1", Team: "forecasting",
		Name: "auto-deploy", Kind: rules.KindAction,
		When:    "metrics.mape < 10",
		Actions: []rules.ActionRef{{Action: "deploy"}},
	}, {
		UUID: "5dfc0f60-0000-4000-8000-0000000000a2", Team: "forecasting",
		Name: "deprecate-on-drift", Kind: rules.KindAction,
		When:    `health.event == "drift" && health.psi > 0.25`,
		Actions: []rules.ActionRef{{Action: "deprecate"}},
	}}, nil); err != nil {
		t.Fatal(err)
	}
	eng.RegisterAction("deploy", rules.DeployAction(reg))
	eng.RegisterAction("deprecate", func(ac *rules.ActionContext) error {
		return reg.DeprecateInstanceCtx(ac.Ctx, ac.Instance.ID)
	})

	m, err := c.RegisterModel(api.RegisterModelRequest{
		BaseVersionID: "bv-demand", Project: "forecasting", Name: "demand", Domain: "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Uploading an instance mints a retrained version born promoted, so
	// each upload is also an audited production-pointer flip.
	inA, err := c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "demand", City: "sf", Blob: blob})
	if err != nil {
		t.Fatal(err)
	}

	// A gateway starts serving it, reporting hot swaps back into the trail
	// the way galleryserve does: queued on its telemetry shipper.
	gwObs := obs.NewRegistry()
	ship := obs.NewShipper(gwObs)
	t.Cleanup(ship.Close)
	gw := serve.New(c, serve.Options{
		Name:            "gw-e2e",
		RefreshInterval: -1,
		HealthSink:      c,
		HealthInterval:  -1,
		AuditSink: func(ev api.AuditEvent) {
			ship.Export(obs.ChannelAudit, func(ctx context.Context) error { return c.ReportAuditEvent(ctx, ev) })
		},
		Obs: gwObs,
	})
	t.Cleanup(gw.Close)
	if _, err := gw.Predict(m.ID, forecast.Context{History: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}

	// A retrain lands instance B and starts serving it on the next
	// refresh; the gateway's swap event rides POST /v1/audit back into
	// the trail.
	inB, err := c.UploadInstance(api.UploadInstanceRequest{ModelID: m.ID, Name: "demand", City: "sf", Blob: blob})
	if err != nil {
		t.Fatal(err)
	}
	gw.RefreshAll()
	ship.Flush()

	// A's offline metric then trips the deploy rule: a rule-driven
	// rollback to A, the promotion event carrying the rule engine as its
	// actor and the metric request's trace.
	if _, err := c.InsertMetric(inA.ID, "mape", "validation", 4.2); err != nil {
		t.Fatal(err)
	}
	srv.Flush() // rule-driven promotion lands
	gw.RefreshAll()
	ship.Flush()

	// Live traffic then drifts off its reference hard enough that the
	// monitor degrades the model and the drift event deprecates A.
	serveWindow := func(mean float64, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			hist := []float64{mean, mean, mean + 20*rng.NormFloat64()}
			if _, err := gw.Predict(m.ID, forecast.Context{History: hist}); err != nil {
				t.Fatal(err)
			}
		}
		if err := gw.FlushHealth(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for s := int64(0); s < 4; s++ {
		serveWindow(200, 300+s)
	}
	mon.Evaluate(context.Background())
	for s := int64(0); s < 2; s++ {
		serveWindow(320, 400+s)
	}
	mon.Evaluate(context.Background())
	eng.Flush()

	dep, err := c.GetInstance(inA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Deprecated {
		t.Fatal("drift rule did not deprecate instance A")
	}
	if b, err := c.GetInstance(inB.ID); err != nil || b.Deprecated {
		t.Fatalf("instance B should survive the drift deprecation (err=%v)", err)
	}

	// --- reconstruct the story from the model's timeline ---
	evs, err := c.EntityTimeline(m.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var actions []string
	lastSeq := int64(0)
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("timeline out of order: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		actions = append(actions, ev.Action)
	}
	wantOrder := []string{
		"model.register",
		"instance.upload",   // A
		"version.promote",   // auto-promoted on upload
		"instance.upload",   // B
		"version.promote",   // auto-promoted on upload
		"serve.swap",        // gateway picks up B
		"version.promote",   // rule-driven rollback to A
		"rule.fire",         // auto-deploy
		"serve.swap",        // gateway rolls back to A
		"health.transition", // first evaluation
		"instance.deprecate",
	}
	ai := 0
	for _, want := range wantOrder {
		found := false
		for ; ai < len(actions); ai++ {
			if actions[ai] == want {
				found = true
				ai++
				break
			}
		}
		if !found {
			t.Fatalf("timeline missing %q after earlier events; full order: %v", want, actions)
		}
	}

	byAction := map[string]api.AuditEvent{}
	for _, ev := range evs {
		byAction[ev.Action] = ev
	}
	// The operator-driven mutations carry the e2e-test actor; the
	// rule-driven promotion names the engine; the swap names the gateway.
	if got := byAction["model.register"].Actor; got != "e2e-test" {
		t.Fatalf("register actor = %q", got)
	}
	if got := byAction["rule.fire"].Actor; got != "rules" {
		t.Fatalf("rule.fire actor = %q", got)
	}
	if got := byAction["serve.swap"].Actor; got != "gateway:gw-e2e" {
		t.Fatalf("serve.swap actor = %q", got)
	}
	// The rule-driven promote and the deploy-rule firing share one trace:
	// the metric insert request that triggered them. (The drift firing is
	// ticker-driven and carries no trace, so select by actor / first-fire
	// rather than the last-wins map.)
	var promote, fire api.AuditEvent
	for _, ev := range evs {
		if ev.Action == "version.promote" && ev.Actor == "rules" {
			promote = ev
		}
		if ev.Action == "rule.fire" && fire.Action == "" {
			fire = ev
		}
	}
	if promote.Action == "" {
		t.Fatal("no rules-actor version.promote in timeline")
	}
	if promote.TraceID == "" || promote.TraceID != fire.TraceID {
		t.Fatalf("promote trace %q != rule.fire trace %q", promote.TraceID, fire.TraceID)
	}

	// Every galleryd-side trace ID must resolve at /v1/debug/traces/{id}.
	for _, ev := range evs {
		if ev.TraceID == "" || ev.Action == "serve.swap" {
			continue // the swap's trace lives in the gateway process
		}
		if _, err := c.DebugTrace(ev.TraceID); err != nil {
			t.Fatalf("trace %s of %s does not resolve: %v", ev.TraceID, ev.Action, err)
		}
	}

	// The log ring carries request lines correlated to the same traces.
	logs, err := c.DebugLogs(client.LogsQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(logs.Entries) == 0 {
		t.Fatal("debug log ring is empty")
	}
	correlated := false
	for _, e := range logs.Entries {
		if e.TraceID != "" && e.TraceID == promote.TraceID {
			correlated = true
			break
		}
	}
	if !correlated {
		t.Fatalf("no log line carries the promotion trace %s", promote.TraceID)
	}

	// The instance timeline view joins through entity_id alone.
	aEvs, err := c.EntityTimeline(inA.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var aActions []string
	for _, ev := range aEvs {
		aActions = append(aActions, ev.Action)
	}
	for _, want := range []string{"instance.upload", "version.promote", "serve.swap", "instance.deprecate"} {
		found := false
		for _, got := range aActions {
			if got == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("instance timeline missing %q: %v", want, aActions)
		}
	}
}

// TestAuditSearchAndIngest pins the /v1/audit search parameters and the
// external-emitter ingest path.
func TestAuditSearchAndIngest(t *testing.T) {
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(32),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := client.NewWith(ts.URL, client.Options{HTTP: ts.Client(), Actor: "searcher"})

	m, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-s", Project: "p", Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeprecateModel(m.ID); err != nil {
		t.Fatal(err)
	}

	// External ingest: a gateway-shaped event lands with its own actor.
	if err := c.ReportAuditEvent(context.Background(), api.AuditEvent{
		Actor: "gateway:gw-x", Action: "serve.swap", EntityType: "instance",
		EntityID: "in-1", ModelID: m.ID, Before: "none", After: "v1.0 (in-1)",
	}); err != nil {
		t.Fatal(err)
	}
	// Ingest without the required fields is rejected, not dropped silently.
	if err := c.ReportAuditEvent(context.Background(), api.AuditEvent{EntityType: "instance"}); err == nil {
		t.Fatal("event without action/entity accepted")
	}

	evs, err := c.AuditEvents(client.AuditQuery{Action: "model.deprecate"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].EntityID != m.ID || evs[0].Actor != "searcher" {
		t.Fatalf("action filter = %+v", evs)
	}
	if evs[0].Before != "active" || evs[0].After != "deprecated" {
		t.Fatalf("deprecate summary = %q -> %q", evs[0].Before, evs[0].After)
	}

	evs, err = c.AuditEvents(client.AuditQuery{Actor: "gateway:gw-x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Action != "serve.swap" {
		t.Fatalf("actor filter = %+v", evs)
	}

	// Raw predicates ride where=field:op:value with the search operators.
	evs, err = c.AuditEvents(client.AuditQuery{Where: []string{"action:prefix:model."}, Asc: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Action != "model.register" || evs[1].Action != "model.deprecate" {
		t.Fatalf("where filter = %+v", evs)
	}

	if _, err := c.AuditEvents(client.AuditQuery{Where: []string{"nonsense"}}); err == nil {
		t.Fatal("malformed where accepted")
	}
	if _, err := c.AuditEvents(client.AuditQuery{Since: "not-a-time"}); err == nil {
		t.Fatal("malformed since accepted")
	}
}
