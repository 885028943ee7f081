package server

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/health"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
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
// from GET /v1/audit/entity/{model}: every state change present in write
// order, and every trace ID resolvable at /v1/debug/traces/{id}.
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
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
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
		return reg.DeprecateInstance(ac.Ctx, ac.Instance.ID)
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
		HealthSink: func(req api.HealthObservationsRequest) {
			ship.Export(obs.ChannelHealth, func(ctx context.Context) error { return c.ReportHealthObservations(ctx, req) })
		},
		HealthInterval: -1,
		AuditSink: func(ev api.AuditEvent) {
			ship.Export(obs.ChannelAudit, func(ctx context.Context) error { return c.ReportAuditEvent(ctx, ev) })
		},
		Obs: gwObs,
	})
	t.Cleanup(gw.Close)
	if _, err := gw.PredictCtx(context.Background(), m.ID, forecast.Context{History: []float64{1, 2, 3}}); err != nil {
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
			if _, err := gw.PredictCtx(context.Background(), m.ID, forecast.Context{History: hist}); err != nil {
				t.Fatal(err)
			}
		}
		gw.FlushHealth()
		ship.Flush()
		if n := gwObs.Snapshot().Counters[`telemetry_failed_total{channel="health"}`]; n != 0 {
			t.Fatalf("%d health windows failed to ship", n)
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

// TestDependencyEditsCarryTheActor: adding and removing an edge over HTTP
// records model.dep_add and model.dep_remove under the caller's actor,
// like every other mutation, not as the system.
func TestDependencyEditsCarryTheActor(t *testing.T) {
	clk := clock.NewMock(t0)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk, UUIDs: uuid.NewSeeded(33),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry()}))
	t.Cleanup(ts.Close)
	c := client.NewWith(ts.URL, client.Options{HTTP: ts.Client(), Actor: "alice"})

	a, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-a", Project: "p", Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-b", Project: "p", Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDependency(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveDependency(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	for _, action := range []string{"model.dep_add", "model.dep_remove"} {
		evs, err := c.AuditEvents(client.AuditQuery{Action: action})
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != 1 || evs[0].EntityID != a.ID || evs[0].Actor != "alice" {
			t.Fatalf("%s events = %+v, want one on %s by alice", action, evs, a.ID)
		}
	}
}

// FuzzAuditWhere: GET /v1/audit over a seeded trail answers any where=,
// since= and until= values with 200 or 400, never a 5xx or a panic, and a
// 200 holds exactly the events, by seq, that a linear filter over the
// whole trail keeps. The filter is auditFilter, written from the API's
// contract rather than from the store's planner.
func FuzzAuditWhere(f *testing.F) {
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clock.NewMock(t0), UUIDs: uuid.NewSeeded(33),
	})
	if err != nil {
		f.Fatal(err)
	}
	actors := []string{"alice", "bob", "gateway:gw-1", "ns/trainer"}
	actions := []string{"model.register", "instance.upload", "version.promote", "serve.swap", "rule.fire"}
	for i := range 40 {
		ev := audit.Event{
			Time:       t0.Add(time.Duration(i*7) * time.Second),
			Actor:      actors[i%len(actors)],
			Action:     actions[i%len(actions)],
			EntityType: "instance",
			EntityID:   fmt.Sprintf("e%d", i%6),
			Before:     fmt.Sprintf("v%d", i),
			After:      fmt.Sprintf("v%d", i+1),
			Detail:     fmt.Sprintf("city=sf%d x:y %%", i%3),
		}
		if i%3 != 0 {
			ev.ModelID = fmt.Sprintf("m%d", i%4)
		}
		if err := reg.Audit().Record(context.Background(), ev); err != nil {
			f.Fatal(err)
		}
	}
	trail, err := reg.Audit().Events(audit.Query{})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry()})

	f.Fuzz(func(t *testing.T, where1, where2, since, until string) {
		q := url.Values{"order": {"asc"}, "limit": {"0"}}
		var wheres []string
		for _, w := range []string{where1, where2} {
			if w != "" {
				q.Add("where", w)
				wheres = append(wheres, w)
			}
		}
		if since != "" {
			q.Set("since", since)
		}
		if until != "" {
			q.Set("until", until)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/audit?"+q.Encode(), nil))
		keep, valid := auditFilter(wheres, since, until)
		switch {
		case rec.Code == http.StatusBadRequest && !valid:
			return
		case rec.Code != http.StatusOK || !valid:
			t.Fatalf("GET /v1/audit?%s = %d (filter valid: %v): %s", q.Encode(), rec.Code, valid, rec.Body)
		}
		var resp api.AuditEventsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		got := make([]int64, len(resp.Events))
		for i, ev := range resp.Events {
			got[i] = ev.Seq
		}
		want := []int64{}
		for _, ev := range trail {
			if keep(ev) {
				want = append(want, ev.Seq)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("GET /v1/audit?%s = seqs %v, want %v", q.Encode(), got, want)
		}
	})
}

// auditFilter is GET /v1/audit's filter as the API documents it, one event
// at a time: where=field:op:value with the search operator names (seq
// compares as an integer, created as an instant given like since, every
// other column as a string; an unknown field and the in operator keep
// nothing, having no value list), since keeps events at or after its
// instant and until those before it. valid is false where the API answers
// 400.
func auditFilter(wheres []string, since, until string) (keep func(audit.Event) bool, valid bool) {
	var preds []func(audit.Event) bool
	for _, raw := range wheres {
		field, rest, ok := strings.Cut(raw, ":")
		op, val, ok2 := strings.Cut(rest, ":")
		if !ok || !ok2 || field == "" {
			return nil, false
		}
		var order func(c int) bool
		switch op {
		case "equal":
			order = func(c int) bool { return c == 0 }
		case "not_equal":
			order = func(c int) bool { return c != 0 }
		case "smaller_than":
			order = func(c int) bool { return c < 0 }
		case "smaller_or_equal":
			order = func(c int) bool { return c <= 0 }
		case "greater_than":
			order = func(c int) bool { return c > 0 }
		case "greater_or_equal":
			order = func(c int) bool { return c >= 0 }
		case "prefix", "contains", "in":
		default:
			return nil, false
		}
		str := map[string]func(audit.Event) string{
			"id": func(e audit.Event) string { return e.ID }, "actor": func(e audit.Event) string { return e.Actor },
			"action": func(e audit.Event) string { return e.Action }, "entity_type": func(e audit.Event) string { return e.EntityType },
			"entity_id": func(e audit.Event) string { return e.EntityID }, "model_id": func(e audit.Event) string { return e.ModelID },
			"before": func(e audit.Event) string { return e.Before }, "after": func(e audit.Event) string { return e.After },
			"detail": func(e audit.Event) string { return e.Detail }, "trace_id": func(e audit.Event) string { return e.TraceID },
		}[field]
		var pred func(audit.Event) bool
		switch {
		case field == "seq":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, false
			}
			pred = func(e audit.Event) bool { return order != nil && order(cmp.Compare(e.Seq, n)) }
		case field == "created":
			at, err := httpmw.ParseSince(val)
			if err != nil {
				return nil, false
			}
			pred = func(e audit.Event) bool { return order != nil && order(e.Time.Compare(at)) }
		case str != nil && op == "prefix":
			pred = func(e audit.Event) bool { return strings.HasPrefix(str(e), val) }
		case str != nil && op == "contains":
			pred = func(e audit.Event) bool { return strings.Contains(str(e), val) }
		case str != nil:
			pred = func(e audit.Event) bool { return order != nil && order(strings.Compare(str(e), val)) }
		default:
			pred = func(audit.Event) bool { return false }
		}
		preds = append(preds, pred)
	}
	for _, bound := range []struct {
		raw  string
		keep func(e audit.Event, at time.Time) bool
	}{
		{since, func(e audit.Event, at time.Time) bool { return !e.Time.Before(at) }},
		{until, func(e audit.Event, at time.Time) bool { return e.Time.Before(at) }},
	} {
		at, err := httpmw.ParseSince(bound.raw)
		if err != nil {
			return nil, false
		}
		if !at.IsZero() {
			preds = append(preds, func(e audit.Event) bool { return bound.keep(e, at) })
		}
	}
	return func(e audit.Event) bool {
		for _, p := range preds {
			if !p(e) {
				return false
			}
		}
		return true
	}, true
}
