package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/core"
	"gallery/internal/health"
	"gallery/internal/incident"
	"gallery/internal/obs"
	"gallery/internal/obs/httpmw"
	"gallery/internal/obs/sketch"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/slo"
	"gallery/internal/wal"
)

// syncStack is a registry over an fsynced WAL, the configuration `galleryd
// -fsync` runs, with one model and one uploaded instance committed.
type syncStack struct {
	meta *relstore.Store
	reg  *core.Registry
	repo *rules.Repo
	obs  *obs.Registry
	m    *core.Model
	in   *core.Instance
}

func newSyncStack(t *testing.T) *syncStack {
	t.Helper()
	meta, err := relstore.Open(filepath.Join(t.TempDir(), "meta.wal"), wal.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { meta.Close() })
	o := obs.NewRegistry()
	reg, err := core.New(meta, blobstore.NewMemory(blobstore.Options{}), core.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.RegisterModel(core.ModelSpec{BaseVersionID: "bv-demand", Project: "p", Name: "demand", Domain: "UberX"})
	if err != nil {
		t.Fatal(err)
	}
	in, err := reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, Name: "demand", City: "sf"}, []byte("blob"))
	if err != nil {
		t.Fatal(err)
	}
	st := &syncStack{meta: meta, reg: reg, repo: rules.NewRepo(nil), obs: o, m: m, in: in}
	// One rule that fires on every metric update: its audit row is the
	// write the engine makes with no client waiting.
	_, err = st.repo.Commit("test", "fire always", []*rules.Rule{{
		UUID: "7d2b6a52-3d0c-4b7e-9f43-1f0c6c3a1e10", Team: "t", Name: "always", Kind: rules.KindAction,
		When: "metrics.mape >= 0", Actions: []rules.ActionRef{{Action: "alert", Params: map[string]any{"message": "m"}}},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.InsertMetric(in.ID, "mape", core.ScopeProduction, 1); err != nil {
		t.Fatal(err)
	}
	st.settle(t)
	return st
}

// settle commits what set-up wrote, so a later outstanding() is the work
// of the loop under test alone.
func (st *syncStack) settle(t *testing.T) {
	t.Helper()
	if err := st.meta.Commit(); err != nil {
		t.Fatal(err)
	}
}

func (st *syncStack) outstanding() int64 { return st.meta.LogSize() - st.meta.LogDurable() }

func (st *syncStack) fired(t *testing.T) int {
	t.Helper()
	evs, err := st.reg.Audit().Events(audit.Query{Action: audit.ActionRuleFire})
	if err != nil {
		t.Fatal(err)
	}
	return len(evs)
}

// TestBackgroundLoopsCommit ticks each of the three places that write with
// no client waiting, and a metric request whose rule runs inline, and
// requires the WAL to be durable to its end afterwards. A new
// unacknowledged writer added without a commit leaves Size ahead of
// Durable and fails here.
func TestBackgroundLoopsCommit(t *testing.T) {
	t.Run("server.handler", func(t *testing.T) {
		st := newSyncStack(t)
		// An unstarted engine runs rules inline, inside the metric request:
		// the request's own commit must cover the rule's write.
		srv := NewWith(st.reg, st.repo, rules.NewEngine(st.reg, st.repo, nil), Options{Obs: st.obs})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if _, err := client.New(ts.URL, ts.Client()).InsertMetric(st.in.ID.String(), "mape", "production", 2); err != nil {
			t.Fatal(err)
		}
		if st.fired(t) != 1 {
			t.Fatalf("rule fired %d times, want 1: the request wrote nothing to commit", st.fired(t))
		}
		if n := st.outstanding(); n != 0 {
			t.Fatalf("metric request left %d bytes uncommitted", n)
		}
	})

	t.Run("rules.Engine worker", func(t *testing.T) {
		st := newSyncStack(t)
		eng := rules.NewEngine(st.reg, st.repo, nil)
		eng.Start(2)
		defer eng.Stop()
		eng.MetricUpdatedCtx(context.Background(), st.in.ID)
		eng.Flush()
		if st.fired(t) != 1 {
			t.Fatalf("rule fired %d times, want 1: the worker wrote nothing to commit", st.fired(t))
		}
		if n := st.outstanding(); n != 0 {
			t.Fatalf("engine job left %d bytes uncommitted", n)
		}
	})

	t.Run("health.Monitor", func(t *testing.T) {
		st := newSyncStack(t)
		rec, err := incident.Open(st.reg.DAL(), incident.Config{Obs: st.obs, Audit: st.reg.Audit()})
		if err != nil {
			t.Fatal(err)
		}
		mon := health.New(st.reg, health.Config{Interval: -1, Obs: st.obs, Events: rec.Event})
		st.settle(t)
		// Windows ingested outside a request stand in for anything the pass
		// itself writes: the pass must end with all of it durable.
		vals, lat := sketch.New(sketch.Config{}), sketch.New(sketch.Config{Lo: 1e-6, Hi: 1e3, Buckets: 128})
		for i := 0; i < 50; i++ {
			vals.Observe(float64(100 + i))
			lat.Observe(0.001)
		}
		start := time.Now().Add(-time.Minute)
		resp, err := mon.Ingest(context.Background(), api.HealthObservationsRequest{Observations: []api.HealthObservation{{
			ModelID: st.m.ID.String(), InstanceID: st.in.ID.String(), WindowStart: start, WindowEnd: start.Add(time.Minute),
			Requests: 50, Values: vals.Snapshot(), Latency: lat.Snapshot(),
		}}})
		if err != nil || resp.Accepted != 1 {
			t.Fatalf("ingest = %+v, %v", resp, err)
		}
		if st.outstanding() == 0 {
			t.Fatal("ingest wrote nothing: the pass has nothing to commit")
		}
		mon.Evaluate(context.Background())
		if n := st.outstanding(); n != 0 {
			t.Fatalf("health pass left %d bytes uncommitted", n)
		}
	})

	t.Run("slo.Service", func(t *testing.T) {
		st := newSyncStack(t)
		rec, err := incident.Open(st.reg.DAL(), incident.Config{Obs: st.obs, Audit: st.reg.Audit()})
		if err != nil {
			t.Fatal(err)
		}
		red := httpmw.NewRED(st.obs)
		svc, err := slo.Open(st.meta, slo.VecSource{Requests: red.Requests, Errors: red.Errors, Latency: red.Latency},
			slo.Config{Obs: st.obs, Audit: st.reg.Audit(), Events: rec.Event})
		if err != nil {
			t.Fatal(err)
		}
		st.settle(t)
		if _, err := svc.Create(context.Background(), slo.Objective{Namespace: "default", Kind: slo.KindAvailability, Target: 0.99}); err != nil {
			t.Fatal(err)
		}
		if st.outstanding() == 0 {
			t.Fatal("create wrote nothing: the tick has nothing to commit")
		}
		svc.Evaluate(context.Background())
		if n := st.outstanding(); n != 0 {
			t.Fatalf("slo tick left %d bytes uncommitted", n)
		}
	})
}

// TestCommitOnAck drives the wrapper with stub handlers: what it commits,
// when, and what a client sees when the commit fails.
func TestCommitOnAck(t *testing.T) {
	write := func(st *syncStack) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if _, err := st.reg.InsertMetricCtx(r.Context(), st.in.ID, "mape", core.ScopeProduction, 2); err != nil {
				t.Error(err)
			}
		}
	}

	t.Run("commits before the first byte", func(t *testing.T) {
		st := newSyncStack(t)
		srv := NewWith(st.reg, nil, nil, Options{Obs: st.obs})
		h := srv.commitOnAck(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			write(st)(w, r)
			if st.outstanding() == 0 {
				t.Error("the handler's insert waited for the disk")
			}
			w.WriteHeader(http.StatusCreated)
			if n := st.outstanding(); n != 0 {
				t.Errorf("header written with %d bytes uncommitted", n)
			}
		}))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/x", nil))
		if rec.Code != http.StatusCreated {
			t.Fatalf("status %d, want 201", rec.Code)
		}
	})

	t.Run("silent handler commits on return", func(t *testing.T) {
		st := newSyncStack(t)
		srv := NewWith(st.reg, nil, nil, Options{Obs: st.obs})
		rec := httptest.NewRecorder()
		srv.commitOnAck(write(st)).ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/x", nil))
		if rec.Code != http.StatusOK || st.outstanding() != 0 {
			t.Fatalf("status %d with %d bytes uncommitted", rec.Code, st.outstanding())
		}
	})

	t.Run("GET is not wrapped", func(t *testing.T) {
		st := newSyncStack(t)
		srv := NewWith(st.reg, nil, nil, Options{Obs: st.obs})
		rec := httptest.NewRecorder()
		srv.commitOnAck(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if _, wrapped := w.(*commitWriter); wrapped {
				t.Error("GET went through the commit wrapper")
			}
		})).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	})

	t.Run("failed commit is a 500 and nothing is acknowledged", func(t *testing.T) {
		for name, respond := range map[string]http.HandlerFunc{
			"explicit": func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusCreated)
				_, _ = w.Write([]byte(`{"id":"acknowledged"}`))
			},
			"implicit": func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte(`{"id":"acknowledged"}`)) },
			"silent":   func(w http.ResponseWriter, r *http.Request) {},
		} {
			st := newSyncStack(t)
			srv := NewWith(st.reg, nil, nil, Options{Obs: st.obs})
			if err := st.meta.Close(); err != nil { // every later Commit fails
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.commitOnAck(respond).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/x", nil))
			body := rec.Body.String()
			if rec.Code != http.StatusInternalServerError || strings.Contains(body, "acknowledged") || !strings.Contains(body, "metadata commit") {
				t.Fatalf("%s: status %d body %q, want a 500 naming the commit and none of the handler's response", name, rec.Code, body)
			}
		}
	})

	t.Run("end to end over a real route", func(t *testing.T) {
		st := newSyncStack(t)
		srv := NewWith(st.reg, nil, nil, Options{Obs: st.obs})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if err := st.meta.Close(); err != nil {
			t.Fatal(err)
		}
		// A search mutates nothing and would answer 200; its commit still
		// runs, and a WAL that cannot commit must not look healthy.
		resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("POST over a closed WAL = %d, want 500", resp.StatusCode)
		}
		if got := st.obs.CounterVec("http_requests_total", []string{"route", "status"}, 0).Peek2("POST /v1/search", "5xx").Value(); got != 1 {
			t.Fatalf("the 500 was not counted against its route: %d", got)
		}
	})
}

// TestCommitSpanUnderRequestRoot: a slow write must show its fsync wait
// apart from its appends, so the commit span hangs off the request root
// and not off the last mutation, and carries the route's trace.
func TestCommitSpanUnderRequestRoot(t *testing.T) {
	st := newSyncStack(t)
	tr := trace.New(trace.Options{Service: "galleryd", Sampler: trace.Always()})
	srv := NewWith(st.reg, nil, nil, Options{Obs: st.obs, Tracer: tr})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const callerTrace = "0af7651916cd43dd8448eb211c80319c"
	body := `{"metric_name":"mape","scope":"production","value":3}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/instances/"+st.in.ID.String()+"/metrics", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+callerTrace+"-b7ad6b7169203331-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("metric insert: status %d", resp.StatusCode)
	}
	d, ok := tr.Store().Get(callerTrace)
	if !ok || len(d.Roots) != 1 {
		t.Fatalf("trace %s not recorded with one root", callerTrace)
	}
	nodes := collectNodes(d.Roots)
	commit, ok := nodes["relstore.wal_commit"]
	if !ok {
		t.Fatalf("no relstore.wal_commit span; have %v", spanNames(nodes))
	}
	if commit.Span.ParentID != d.Roots[0].Span.SpanID {
		t.Fatal("relstore.wal_commit must be a direct child of the HTTP root span")
	}
	if _, ok := nodes["relstore.wal_append"]; !ok {
		t.Fatalf("no relstore.wal_append span beside it; have %v", spanNames(nodes))
	}
}
