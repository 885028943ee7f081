package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/blobstore"
	"gallery/internal/cache"
	"gallery/internal/client"
	"gallery/internal/core"
	"gallery/internal/dal"
	"gallery/internal/forecast"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/serve"
	"gallery/internal/server"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

// The traced run. Everything here is in-process and single-threaded, on
// fixed operation counts; end-to-end metrics are never taken from it.
//
// Two kinds of measurement, both from outside the program:
//
//   - seams that are interfaces are wrapped in place (http.RoundTripper
//     under internal/client, http.Handler around both daemons' handlers,
//     serve.Source between gateway and registry) and record real
//     parent/child spans, self time = span minus children;
//   - concrete layers are entered directly, the same seeded operation
//     replayed at each depth, self time = rung minus the rungs it calls.

// span is one recorded interval. Parent is an index into the recorder's
// spans, -1 for a root; Op numbers the client operation it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory. The ladder issues one operation at a
// time, so "the span that caused this one" is the innermost open span,
// whichever goroutine (client or server side of the loopback socket)
// opens the next.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func (r *recorder) begin(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	} else {
		r.op++
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Op: r.op})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = int64(time.Since(r.t0))
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// mark returns a position in the recording; since returns what was
// recorded after it. Span parents index the whole recording, so since also
// returns the index of its first span.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) since(mark int) (spans []span, base int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[mark:], mark
}

// selfTimes returns, per span name, the median duration and the median
// self time (duration minus the children's) in microseconds. base is the
// index of spans[0] in the recording its parents refer to.
func selfTimes(spans []span, base int) (total, self map[string]float64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= base {
			child[s.Parent-base] += s.End - s.Start
		}
	}
	tot, slf := map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		d := s.End - s.Start
		tot[s.Name] = append(tot[s.Name], float64(d)/1e3)
		slf[s.Name] = append(slf[s.Name], float64(d-child[i])/1e3)
	}
	total, self = map[string]float64{}, map[string]float64{}
	for n := range tot {
		total[n], self[n] = median(tot[n]), median(slf[n])
	}
	return total, self
}

// spanTransport, spanHandler and spanSource are the wrapped seams.
type spanTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.begin("net.roundtrip")
	defer t.rec.end(id)
	return t.base.RoundTrip(req)
}

func spanHandler(name string, rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := rec.begin(name)
		defer rec.end(id)
		next.ServeHTTP(w, r)
	})
}

type spanSource struct {
	src serve.Source
	rec *recorder
}

func (s spanSource) ProductionVersion(modelID string) (api.VersionRecord, error) {
	id := s.rec.begin("serve.source")
	defer s.rec.end(id)
	return s.src.ProductionVersion(modelID)
}

func (s spanSource) FetchBlob(instanceID string) ([]byte, error) {
	id := s.rec.begin("serve.source")
	defer s.rec.end(id)
	return s.src.FetchBlob(instanceID)
}

// discard is a reusable ResponseWriter: the handler rungs measure the
// handler, not a recorder's buffers.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) reset() {
	clear(d.h)
	d.code = http.StatusOK
}

// rung times op n times after warm untimed calls and returns the median
// in microseconds. prep, when set, runs before each op outside the timing.
func rung(n, warm int, prep func(i int), op func(i int) error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < warm+n; i++ {
		if prep != nil {
			prep(i)
		}
		t0 := time.Now()
		err := op(i)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if i >= warm {
			ds = append(ds, float64(d)/1e3)
		}
	}
	return median(ds), nil
}

// allocs is testing.AllocsPerRun with the operation's error checked.
func allocs(runs int, op func() error) (float64, error) {
	var err error
	n := testing.AllocsPerRun(runs, func() {
		if e := op(); e != nil {
			err = e
		}
	})
	return n, err
}

// serveLoopback serves h on a fresh loopback port from this process.
func serveLoopback(h http.Handler) (base string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(l) // returns ErrServerClosed on stop
		close(done)
	}()
	return "http://" + l.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// budget is one ladder's table: rows that sum to the top rung.
type budget struct {
	op   string
	top  float64
	rows []budgetRow
}

type budgetRow struct {
	layer string
	us    float64
}

func (b budget) print() {
	fmt.Printf("-- budget: %s, top rung %.1f us (in-process, median per op)\n", b.op, b.top)
	sum := 0.0
	for _, r := range b.rows {
		fmt.Printf("   %-34s %10.1f us %6.1f%%\n", r.layer, r.us, 100*ratio(r.us, b.top))
		sum += r.us
	}
	fmt.Printf("   %-34s %10.1f us\n", "sum of rows", sum)
}

// ladder runs the whole traced run and adds every `_us`, `_allocs` and
// `trace.*` row to m. op names the ladder whose top rung corresponds to
// the calling workload's operation, for trace.ladder_vs_e2e.
func ladder(env *env, cfg *config, m *metrics, op string) error {
	dir, err := env.tempDir("ladder")
	if err != nil {
		return err
	}
	defer env.removeDir(dir)
	rec := &recorder{t0: time.Now(), on: true}
	n, warm := cfg.rungOps, cfg.rungWarm

	if err := storageRungs(dir, n, warm, m); err != nil {
		return fmt.Errorf("storage rungs: %w", err)
	}
	reg, err := newInProcRegistry(dir, rec)
	if err != nil {
		return err
	}
	defer reg.close()
	upload, search, err := reg.rungs(n, warm, m)
	if err != nil {
		return fmt.Errorf("registry rungs: %w", err)
	}
	predict, err := predictRungs(reg, rec, cfg, n, warm, m)
	if err != nil {
		return fmt.Errorf("predict rungs: %w", err)
	}
	for _, b := range []budget{predict[hotHistory], upload, search} {
		b.print()
	}

	// How far the in-process top rung is from what the subprocess run saw
	// for the same operation.
	e2e := map[string]float64{
		"predict":     m.byN["raw.p50_ms"].Value,
		"predict_h48": m.byN["raw.p50_ms"].Value,
		"upload":      m.byN["client.upload_p50_ms"].Value,
		"search":      m.byN["client.search_p50_ms"].Value,
	}
	top := map[string]float64{
		"predict": predict[hotHistory].top, "predict_h48": predict[mixHistory].top,
		"upload": upload.top, "search": search.top,
	}
	m.set("trace.ladder_vs_e2e", ratio(top[op]/1e3, e2e[op]), "ratio")
	m.set("trace.spans", float64(len(rec.spans)), "count")
	return writeJSON(filepath.Join(env.outDir, "trace.json"), rec.spans)
}

// ---------------------------------------------------------------------
// storage layers, each on its own files

const walRecordBytes = 1200 // about one instance row as relstore logs it

func benchRow(i int) relstore.Row {
	return relstore.Row{
		"id":              relstore.String(fmt.Sprintf("row-%08d", i)),
		"model_id":        relstore.String(fmt.Sprintf("model-%04d", i%regModels)),
		"base_version_id": relstore.String(modelBase(i)),
		"project":         relstore.String("marketplace"),
		"name":            relstore.String("demand"),
		"city":            relstore.String(modelCity(i)),
		"framework":       relstore.String("linear_ar"),
		"training_data":   relstore.String(fmt.Sprintf("hdfs://warehouse/demand/%s/run_%06d", modelCity(i), i)),
		"code_pointer":    relstore.String("git://forecasting/demand@0badc0de"),
		"seed":            relstore.Int(int64(i)),
		"epochs":          relstore.Int(10),
		"hyperparams":     relstore.String(`{"lags":48,"ridge":1e-6,"horizon":1}`),
		"features":        relstore.String("lags[1..48],hour_sin,hour_cos,dow_sin,dow_cos"),
		"blob_location":   relstore.String(fmt.Sprintf("disk://gallery/row-%08d", i)),
		"created":         relstore.Time(epoch.Add(time.Duration(i) * time.Second)),
		"deprecated":      relstore.Bool(false),
	}
}

func instancesSchema() relstore.Schema {
	for _, s := range core.Schemas() {
		if s.Table == core.TableInstances {
			return s
		}
	}
	panic("core.Schemas has no instances table")
}

func storageRungs(dir string, n, warm int, m *metrics) error {
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xA5}, walRecordBytes)
	blob := bytes.Repeat([]byte{0x5A}, regBlobSize)

	// wal: one append, with and without the fsync. Fewer synced appends:
	// each waits for the disk.
	for _, v := range []struct {
		name string
		sync bool
		n    int
	}{{"wal.append_us", true, max(n/8, 20)}, {"wal.append_nosync_us", false, n}} {
		l, err := wal.Open(filepath.Join(dir, v.name), wal.Options{Sync: v.sync}, nil)
		if err != nil {
			return err
		}
		us, err := rung(v.n, warm/4, nil, func(int) error { return l.Append(payload) })
		if err != nil {
			return err
		}
		if err := l.Close(); err != nil {
			return err
		}
		m.set(v.name, us, "us")
	}

	// relstore: one insert of an instance-shaped row into the instances
	// schema, WAL on disk without fsync; then recovery of that log.
	relPath := filepath.Join(dir, "rel.wal")
	store, err := relstore.Open(relPath, wal.Options{})
	if err != nil {
		return err
	}
	if err := store.CreateTable(instancesSchema()); err != nil {
		return err
	}
	us, err := rung(n, warm, nil, func(i int) error { return store.InsertCtx(ctx, core.TableInstances, benchRow(i)) })
	if err != nil {
		return err
	}
	m.set("relstore.insert_us", us, "us")
	m.set("relstore.insert_self_us", us-m.byN["wal.append_nosync_us"].Value, "us")
	if err := store.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	store, err = relstore.Open(relPath, wal.Options{})
	if err != nil {
		return err
	}
	recovered := time.Since(t0)
	rows, err := store.Len(core.TableInstances)
	if err != nil {
		return err
	}
	m.set("relstore.recover_us_per_record", micros(recovered)/float64(rows+1), "us") // +1: the CreateTable record
	if err := store.Close(); err != nil {
		return err
	}

	// blobstore: replicated, checksummed put and get on disk.
	blobDir := filepath.Join(dir, "blobs")
	blobs, err := blobstore.NewDisk(blobDir, blobstore.Options{})
	if err != nil {
		return err
	}
	locs := make([]string, warm+n)
	if us, err = rung(n, warm, nil, func(i int) (err error) {
		locs[i], err = blobs.Put(fmt.Sprintf("blob-%06d", i), blob)
		return err
	}); err != nil {
		return err
	}
	m.set("blobstore.put_us", us, "us")
	if us, err = rung(n, warm, nil, func(i int) error { _, err := blobs.Get(locs[i]); return err }); err != nil {
		return err
	}
	m.set("blobstore.get_us", us, "us")
	m.set("blobstore.bytes_per_user_byte", ratio(float64(dirBytes(blobDir)), float64((warm+n)*len(blob))), "ratio")

	// cache: one hit.
	c := cache.New(64 << 20)
	c.Put("k", blob)
	if us, err = rung(n, warm, nil, func(int) error {
		if _, ok := c.Get("k"); !ok {
			return fmt.Errorf("cache miss on a resident key")
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("cache.get_us", us, "us")

	// dal: blob put through the DAL; get from its cache and past it.
	meta := relstore.NewMemory()
	for _, v := range []struct {
		name       string
		cacheBytes int64
	}{{"dal.get_blob_hit_us", 64 << 20}, {"dal.get_blob_miss_us", 0}} {
		d := dal.New(meta, blobs, dal.Options{CacheBytes: v.cacheBytes})
		if v.cacheBytes > 0 {
			dlocs := make([]string, warm+n)
			if us, err = rung(n, warm, nil, func(i int) (err error) {
				dlocs[i], err = d.PutBlobCtx(ctx, fmt.Sprintf("dal-%06d", i), blob)
				return err
			}); err != nil {
				return err
			}
			m.set("dal.put_blob_us", us, "us")
			if _, err := d.GetBlobCtx(ctx, dlocs[0]); err != nil { // fill
				return err
			}
			locs = dlocs
		}
		if us, err = rung(n, warm, nil, func(i int) error {
			if v.cacheBytes > 0 {
				i = 0 // the resident one
			}
			_, err := d.GetBlobCtx(ctx, locs[i])
			return err
		}); err != nil {
			return err
		}
		m.set(v.name, us, "us")
	}

	// audit: one event recorded, its row logged to a disk WAL.
	astore, err := relstore.Open(filepath.Join(dir, "audit.wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer astore.Close()
	alog, err := audit.Open(astore, audit.Options{})
	if err != nil {
		return err
	}
	if us, err = rung(n, warm, nil, func(i int) error {
		return alog.Record(ctx, audit.Event{
			Action: audit.ActionInstanceUpload, EntityType: audit.EntityInstance, EntityID: fmt.Sprintf("inst-%06d", i),
			ModelID: "model", After: "blob=disk://gallery/x bytes=4096", Detail: "name=demand city=sf framework=linear_ar",
		})
	}); err != nil {
		return err
	}
	m.set("audit.record_us", us, "us")
	return nil
}

// ---------------------------------------------------------------------
// the registry, assembled in-process as galleryd assembles it: disk WAL
// with fsync (registry_write's flush policy), auth, rules engine, tracer
// at errslow. Health monitor, SLO evaluator, profiler and recorder run on
// tickers beside the request path and are left out.

type inProcRegistry struct {
	rec    *recorder
	dir    string
	meta   *relstore.Store
	reg    *core.Registry
	engine *rules.Engine
	srv    *server.Server
	base   string
	stop   func()
	cl     *client.Client
}

func newInProcRegistry(dir string, rec *recorder) (*inProcRegistry, error) {
	r := &inProcRegistry{rec: rec, dir: filepath.Join(dir, "galleryd")}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if r.meta, err = relstore.Open(filepath.Join(r.dir, "meta.wal"), wal.Options{Sync: true}); err != nil {
		return nil, err
	}
	blobs, err := blobstore.NewDisk(filepath.Join(r.dir, "blobs"), blobstore.Options{})
	if err != nil {
		return nil, err
	}
	if r.reg, err = core.New(r.meta, blobs, core.Options{AuditKeep: 256}); err != nil {
		return nil, err
	}
	repo := rules.NewRepo(nil)
	r.engine = rules.NewEngine(r.reg, repo, nil)
	if _, err := repo.Commit("bench", "watch mape", []*rules.Rule{{
		UUID: "bench-mape-watch", Team: "forecasting", Name: "mape watch", Kind: rules.KindAction,
		When: "metrics.mape > 100", Actions: []rules.ActionRef{{Action: "alert"}},
	}}, nil); err != nil {
		return nil, err
	}
	tenants, err := tenant.Open(r.meta, tenant.Options{Audit: r.reg.Audit()})
	if err != nil {
		return nil, err
	}
	if _, err := tenants.EnsureToken(context.Background(), benchToken, tenant.DefaultNamespace, "bench", tenant.RoleOperator); err != nil {
		return nil, err
	}
	sampler, err := trace.ParseSampler("errslow:250ms")
	if err != nil {
		return nil, err
	}
	r.srv = server.NewWith(r.reg, repo, r.engine, server.Options{
		Tracer:  trace.New(trace.Options{Service: "galleryd", Sampler: sampler, Capacity: 256}),
		Logs:    obslog.NewRing(1024),
		Tenants: tenants,
	})
	if r.base, r.stop, err = serveLoopback(spanHandler("server.handler", rec, r.srv)); err != nil {
		return nil, err
	}
	r.cl = tracedClient(r.base, rec)
	return r, nil
}

func tracedClient(base string, rec *recorder) *client.Client {
	tr := spanTransport{base: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}, rec: rec}
	return client.NewWith(base, client.Options{HTTP: &http.Client{Transport: tr}, Token: benchToken})
}

func (r *inProcRegistry) close() {
	r.stop()
	r.engine.Stop()
	r.srv.Close()
	r.meta.Close()
}

// walRecords counts the records of the registry's log through the wal
// package's own replay, on a copy so the live log is not reopened.
func (r *inProcRegistry) walRecords() (int, error) {
	raw, err := os.ReadFile(filepath.Join(r.dir, "meta.wal"))
	if err != nil {
		return 0, err
	}
	cp := filepath.Join(r.dir, "meta.count")
	if err := os.WriteFile(cp, raw, 0o600); err != nil {
		return 0, err
	}
	defer os.Remove(cp)
	n := 0
	l, err := wal.Open(cp, wal.Options{}, func([]byte) error { n++; return nil })
	if err != nil {
		return 0, err
	}
	return n, l.Close()
}

// directRequest is a reusable authenticated request for the rungs that
// enter a handler directly; serve rewinds its body.
type directRequest struct {
	req  *http.Request
	body *bytes.Reader
	w    *discard
}

func newDirectRequest(method, path string, body []byte) *directRequest {
	d := &directRequest{body: bytes.NewReader(body), w: &discard{h: http.Header{}}}
	d.req, _ = http.NewRequest(method, "http://bench"+path, nil)
	d.req.Header.Set("Authorization", "Bearer "+benchToken)
	d.req.Header.Set("Content-Type", "application/json")
	d.req.ContentLength = int64(len(body))
	return d
}

func (d *directRequest) serve(h http.Handler) error {
	d.body.Seek(0, io.SeekStart)
	d.req.Body = io.NopCloser(d.body)
	d.w.reset()
	h.ServeHTTP(d.w, d.req)
	if d.w.code >= 300 {
		return fmt.Errorf("%s %s: status %d", d.req.Method, d.req.URL.Path, d.w.code)
	}
	return nil
}

func (r *inProcRegistry) rungs(n, warm int, m *metrics) (upload, search budget, err error) {
	ctx := context.Background()
	// Uploads wait for the disk three times each; fewer of them.
	nw, ww := max(n/8, 20), max(warm/8, 5)
	lc := newLifecycle(7, 3*(nw+ww)+64)
	var modelIDs []uuid.UUID
	const models = 40
	for k := 0; k < models; k++ {
		mod, err := r.reg.RegisterModel(core.ModelSpec{
			BaseVersionID: modelBase(k), Project: "marketplace", Name: fmt.Sprintf("demand_%03d", k),
			Owner: "bench", Team: "forecasting", Domain: "UberX",
		})
		if err != nil {
			return upload, search, err
		}
		modelIDs = append(modelIDs, mod.ID)
	}
	next := 0 // cursor into the lifecycle list, shared by the three upload rungs
	spec := func(i int) (core.InstanceSpec, api.UploadInstanceRequest) {
		it := lc.iters[i]
		k := it.model % models
		req := uploadRequest(modelIDs[k].String(), k, i, it.blob)
		return core.InstanceSpec{
			ModelID: modelIDs[k], Name: req.Name, City: req.City, Framework: req.Framework, TrainingData: req.TrainingData,
			CodePointer: req.CodePointer, Seed: req.Seed, Epochs: req.Epochs, Hyperparams: req.Hyperparams, Features: req.Features,
		}, req
	}

	// core.upload: blob first, then one atomic metadata batch, then the
	// audit rows. Counted on this rung: WAL records, WAL bytes and audit
	// rows per upload.
	recs0, err := r.walRecords()
	if err != nil {
		return upload, search, err
	}
	audit0 := r.reg.Audit().Len()
	var uploaded []*core.Instance
	coreUp, err := rung(nw, ww, nil, func(int) error {
		s, req := spec(next)
		next++
		in, err := r.reg.UploadInstanceCtx(ctx, s, req.Blob)
		uploaded = append(uploaded, in)
		return err
	})
	if err != nil {
		return upload, search, err
	}
	recs1, err := r.walRecords()
	if err != nil {
		return upload, search, err
	}
	ops := float64(nw + ww)
	walPerOp := float64(recs1-recs0) / ops
	auditPerOp := float64(r.reg.Audit().Len()-audit0) / ops
	m.set("core.upload_us", coreUp, "us")
	m.set("audit.rows_per_op", auditPerOp, "1/op")
	a, err := allocs(20, func() error {
		s, req := spec(next)
		next++
		_, err := r.reg.UploadInstanceCtx(ctx, s, req.Blob)
		return err
	})
	if err != nil {
		return upload, search, err
	}
	m.set("core.upload_allocs", a, "count")

	// The layers core.upload calls, at the counts just measured. Each WAL
	// record is one synced append; an audit row's own append is among them.
	appendUS := m.byN["wal.append_us"].Value
	walUS := walPerOp * appendUS
	auditSelf := auditPerOp * (m.byN["audit.record_us"].Value - m.byN["wal.append_nosync_us"].Value)
	blobUS := m.byN["dal.put_blob_us"].Value
	relSelf := (walPerOp - auditPerOp) * m.byN["relstore.insert_self_us"].Value
	m.set("core.upload_self_us", coreUp-walUS-auditSelf-blobUS-relSelf, "us")

	// The other registry calls of a lifecycle iteration, and rule dispatch
	// (the engine is not started yet, so evaluation runs inline and is timed).
	us, err := rung(nw, ww, nil, func(i int) error {
		return r.reg.InsertMetrics(uploaded[i].ID, core.ScopeValidation, lc.iters[i].metrics)
	})
	if err != nil {
		return upload, search, err
	}
	m.set("core.insert_metrics_us", us, "us")
	if us, err = rung(nw, ww, nil, func(i int) error {
		r.engine.MetricUpdatedCtx(ctx, uploaded[i].ID)
		return nil
	}); err != nil {
		return upload, search, err
	}
	m.set("rules.metric_updated_us", us, "us")
	r.engine.Start(4)
	// Promote flips between two instances of one model.
	var pair [2]uuid.UUID
	for k := range pair {
		s, req := spec(next)
		next++
		s.ModelID = modelIDs[0]
		in, err := r.reg.UploadInstanceCtx(ctx, s, req.Blob)
		if err != nil {
			return upload, search, err
		}
		pair[k] = in.ID
	}
	if us, err = rung(nw, ww, nil, func(i int) error { return r.reg.PromoteInstanceCtx(ctx, pair[i%2]) }); err != nil {
		return upload, search, err
	}
	m.set("core.promote_us", us, "us")

	// server.upload: the same upload through galleryd's handler — JSON
	// decode, auth, quota, RED, tracing, audit actor — entered directly.
	// The handler also logs the tenant's quota usage, so the whole path's
	// WAL records and bytes per upload are counted here.
	var dreq *directRequest
	if recs1, err = r.walRecords(); err != nil {
		return upload, search, err
	}
	size1 := r.meta.LogSize()
	srvUp, err := rung(nw, ww, func(int) {
		_, req := spec(next)
		next++
		body, _ := json.Marshal(req)
		dreq = newDirectRequest("POST", "/v1/instances", body)
	}, func(int) error { return dreq.serve(r.srv) })
	if err != nil {
		return upload, search, err
	}
	recs2, err := r.walRecords()
	if err != nil {
		return upload, search, err
	}
	walPath := float64(recs2-recs1) / ops
	m.set("wal.records_per_op", walPath, "1/op")
	m.set("wal.bytes_per_op", float64(r.meta.LogSize()-size1)/ops, "B/op")
	m.set("server.upload_us", srvUp, "us")
	m.set("server.upload_self_us", srvUp-coreUp-(walPath-walPerOp)*appendUS, "us")
	_, req := spec(next)
	next++
	body, _ := json.Marshal(req)
	dreq = newDirectRequest("POST", "/v1/instances", body)
	if a, err = allocs(20, func() error { return dreq.serve(r.srv) }); err != nil {
		return upload, search, err
	}
	m.set("server.upload_allocs", a, "count")

	// client.upload: the top rung, over a loopback socket, with the
	// transport and the handler wrapped.
	mark := r.rec.mark()
	cliUp, err := rung(nw, ww, nil, func(int) error {
		_, req := spec(next)
		next++
		id := r.rec.begin("client.upload")
		defer r.rec.end(id)
		_, err := r.cl.UploadInstance(req)
		return err
	})
	if err != nil {
		return upload, search, err
	}
	tot, self := selfTimes(r.rec.since(mark))
	m.set("client.upload_us", cliUp, "us")
	m.set("client.upload_self_us", self["client.upload"], "us")
	m.set("net.upload_rtt_us", self["net.roundtrip"], "us")
	upload = budget{op: "client.UploadInstance (fsync per WAL append)", top: cliUp, rows: []budgetRow{
		{"client (self)", self["client.upload"]},
		{"net + net/http (roundtrip self)", self["net.roundtrip"]},
		{"server (handler - core - its appends)", tot["server.handler"] - coreUp - (walPath-walPerOp)*appendUS},
		{"core (self)", m.byN["core.upload_self_us"].Value},
		{"dal + blobstore put", blobUS},
		{"relstore apply (self)", relSelf},
		{"audit (self)", auditSelf},
		{fmt.Sprintf("wal: %.1f synced appends", walPath), walPath * appendUS},
		{"unattributed", cliUp - self["client.upload"] - self["net.roundtrip"] - tot["server.handler"]},
	}}

	// Reads, over what the rungs above wrote.
	city := modelCity(3)
	cityQ := relstore.Query{Table: core.TableInstances, Where: []relstore.Constraint{
		{Field: "city", Op: relstore.OpEq, Value: relstore.String(city)},
		{Field: "deprecated", Op: relstore.OpEq, Value: relstore.Bool(false)},
	}, OrderBy: "created", Desc: true, Limit: searchLimit}
	lineQ := relstore.Query{Table: core.TableInstances, Where: []relstore.Constraint{
		{Field: "base_version_id", Op: relstore.OpEq, Value: relstore.String(modelBase(3))},
	}, OrderBy: "created"}
	var relCity float64
	for _, v := range []struct {
		name string
		q    relstore.Query
	}{{"city", cityQ}, {"lineage", lineQ}} {
		var ex relstore.Explain
		var rows []relstore.Row
		us, err := rung(n, warm, nil, func(int) (err error) { rows, ex, err = r.meta.SelectExplain(v.q); return })
		if err != nil {
			return upload, search, err
		}
		if len(rows) == 0 {
			return upload, search, fmt.Errorf("select %s returned no rows", v.name)
		}
		m.set("relstore.select_"+v.name+"_us", us, "us")
		m.set("relstore.scanned_per_result_"+v.name, float64(ex.Scanned)/float64(len(rows)), "rows")
		if v.name == "city" {
			relCity = us
		}
	}
	coreSearch, err := rung(n, warm, nil, func(int) error {
		_, err := r.reg.SearchInstances(core.InstanceFilter{City: city, Limit: searchLimit})
		return err
	})
	if err != nil {
		return upload, search, err
	}
	m.set("core.search_us", coreSearch, "us")
	coreLine, err := rung(n, warm, nil, func(int) error { _, err := r.reg.Lineage(modelBase(3)); return err })
	if err != nil {
		return upload, search, err
	}
	m.set("core.lineage_us", coreLine, "us")

	sbody, _ := json.Marshal(citySearch(city, false))
	sreq := newDirectRequest("POST", "/v1/search", sbody)
	srvSearch, err := rung(n, warm, nil, func(int) error { return sreq.serve(r.srv) })
	if err != nil {
		return upload, search, err
	}
	m.set("server.search_us", srvSearch, "us")
	m.set("server.search_self_us", srvSearch-coreSearch, "us")
	lreq := newDirectRequest("GET", "/v1/lineage/"+modelBase(3), nil)
	if us, err = rung(n, warm, nil, func(int) error { return lreq.serve(r.srv) }); err != nil {
		return upload, search, err
	}
	m.set("server.lineage_us", us, "us")

	mark = r.rec.mark()
	cliSearch, err := rung(n, warm, nil, func(int) error {
		id := r.rec.begin("client.search")
		defer r.rec.end(id)
		got, err := r.cl.Search(citySearch(city, false))
		if err == nil && len(got) == 0 {
			err = fmt.Errorf("search returned nothing")
		}
		return err
	})
	if err != nil {
		return upload, search, err
	}
	tot, self = selfTimes(r.rec.since(mark))
	m.set("client.search_us", cliSearch, "us")
	search = budget{op: "client.Search city, newest first", top: cliSearch, rows: []budgetRow{
		{"client (self)", self["client.search"]},
		{"net + net/http (roundtrip self)", self["net.roundtrip"]},
		{"server (handler - core)", tot["server.handler"] - coreSearch},
		{"core (search - select)", coreSearch - relCity},
		{"relstore select", relCity},
		{"unattributed", cliSearch - self["client.search"] - self["net.roundtrip"] - tot["server.handler"]},
	}}
	return upload, search, nil
}

// ---------------------------------------------------------------------
// the serving tier, assembled in-process as galleryserve assembles it,
// loading through the wrapped Source from the in-process registry.

func predictRungs(reg *inProcRegistry, rec *recorder, cfg *config, n, warm int, m *metrics) (map[int]budget, error) {
	ctx := context.Background()
	model, err := trainAR(cfg.seed*1000, 48)
	if err != nil {
		return nil, err
	}
	blob, err := forecast.Encode(model)
	if err != nil {
		return nil, err
	}
	// Two models holding the same learner: a resident one, and a pair that
	// evict each other from a one-slot gateway for the load rung.
	ids := make([]string, 3)
	for k := range ids {
		mod, err := reg.reg.RegisterModel(core.ModelSpec{BaseVersionID: fmt.Sprintf("predict_%d", k), Project: "marketplace", Name: fmt.Sprintf("predict_%d", k)})
		if err != nil {
			return nil, err
		}
		if _, err := reg.reg.UploadInstance(core.InstanceSpec{ModelID: mod.ID, Name: "demand", City: "sf", Framework: "linear_ar"}, blob); err != nil {
			return nil, err
		}
		ids[k] = mod.ID.String()
	}

	us, err := rung(n, warm, nil, func(int) error { _, err := forecast.DefaultLoader.Load(blob); return err })
	if err != nil {
		return nil, err
	}
	m.set("forecast.load_us", us, "us")

	tm, err := tenant.Open(relstore.NewMemory(), tenant.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := tm.EnsureToken(ctx, benchToken, tenant.DefaultNamespace, "bench", tenant.RoleOperator); err != nil {
		return nil, err
	}
	sampler, err := trace.ParseSampler("errslow:250ms")
	if err != nil {
		return nil, err
	}
	tracer := trace.New(trace.Options{Service: "galleryserve", Sampler: sampler, Capacity: 256})
	src := spanSource{src: newClient(reg.base), rec: rec}
	// Refresh and health flush are tickers beside the request path: off.
	gw := serve.New(src, serve.Options{MaxModels: 64, RefreshInterval: -1, Tracer: tracer})
	defer gw.Close()
	handler := serve.NewHandler(gw, serve.WithTracer(tracer), serve.WithLogRing(obslog.NewRing(1024)), serve.WithAuthorizer(tm))
	base, stop, err := serveLoopback(spanHandler("serve.handler", rec, handler))
	if err != nil {
		return nil, err
	}
	defer stop()
	cl := tracedClient(base, rec)

	// auth: tenant.Manager.Authorize on one predict request.
	areq := newDirectRequest("POST", "/v1/predict/"+ids[0], nil)
	if us, err = rung(n, warm, nil, func(int) error {
		if d := tm.Authorize(areq.req); d.Status >= 400 {
			return fmt.Errorf("authorize: %d %s", d.Status, d.Reason)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m.set("httpmw.auth_us", us, "us")
	a, _ := allocs(100, func() error { tm.Authorize(areq.req); return nil })
	m.set("httpmw.auth_allocs", a, "count")

	budgets := map[int]budget{}
	handlerUS := map[int]float64{}
	for _, points := range []int{hotHistory, mixHistory} {
		preq := histories(cfg.seed*1000+900, 1, points)[0]
		fctx := forecastContext(preq)
		want := model.Forecast(fctx)

		fUS, err := rung(n, warm, nil, func(int) error { model.Forecast(fctx); return nil })
		if err != nil {
			return nil, err
		}
		gUS, err := rung(n, warm, nil, func(int) error { _, err := gw.PredictCtx(ctx, ids[0], fctx); return err })
		if err != nil {
			return nil, err
		}
		body, _ := json.Marshal(preq)
		dreq := newDirectRequest("POST", "/v1/predict/"+ids[0], body)
		hUS, err := rung(n, warm, nil, func(int) error { return dreq.serve(handler) })
		if err != nil {
			return nil, err
		}
		handlerUS[points] = hUS

		mark := rec.mark()
		predict := func() error {
			id := rec.begin("client.predict")
			defer rec.end(id)
			resp, err := cl.Predict(ids[0], preq)
			if err == nil && resp.Value != want {
				err = fmt.Errorf("predicted %v, want %v", resp.Value, want)
			}
			return err
		}
		cUS, err := rung(n, warm, nil, func(int) error { return predict() })
		if err != nil {
			return nil, err
		}
		tot, self := selfTimes(rec.since(mark))
		budgets[points] = budget{op: fmt.Sprintf("client.Predict, %d-point history", points), top: cUS, rows: []budgetRow{
			{"client (self)", self["client.predict"]},
			{"net + net/http (roundtrip self)", self["net.roundtrip"]},
			{"serve handler (span - gateway)", tot["serve.handler"] - gUS},
			{"serve gateway (hit - forecast)", gUS - fUS},
			{"forecast", fUS},
			{"unattributed", cUS - self["client.predict"] - self["net.roundtrip"] - tot["serve.handler"]},
		}}

		if points != hotHistory {
			m.set("serve.handler_us_h48", hUS, "us")
			m.set("client.predict_us_h48", cUS, "us")
			continue
		}
		m.set("forecast.forecast_us", fUS, "us")
		m.set("serve.gateway_hit_us", gUS, "us")
		m.set("serve.gateway_self_us", gUS-fUS, "us")
		m.set("serve.handler_us_h672", hUS, "us")
		m.set("serve.handler_self_us", hUS-gUS, "us")
		m.set("client.predict_us", cUS, "us")
		m.set("client.predict_self_us", self["client.predict"], "us")
		m.set("net.predict_rtt_us", self["net.roundtrip"], "us")

		for _, v := range []struct {
			name string
			op   func() error
		}{
			{"forecast.forecast_allocs", func() error { model.Forecast(fctx); return nil }},
			{"serve.gateway_allocs", func() error { _, err := gw.PredictCtx(ctx, ids[0], fctx); return err }},
			{"serve.handler_allocs", func() error { return dreq.serve(handler) }},
			// The whole loopback round trip in one process: client,
			// net/http on both sides, and the handler.
			{"client.predict_allocs", predict},
		} {
			a, err := allocs(100, v.op)
			if err != nil {
				return nil, err
			}
			m.set(v.name, a, "count")
		}

		// Span-recording cost: the same rung with the recorder on for even
		// operations and off for odd ones, so host drift hits both alike.
		var on, off []float64
		for i := 0; i < 2*n; i++ {
			rec.on = i%2 == 0
			t0 := time.Now()
			err := predict()
			d := float64(time.Since(t0)) / 1e3
			if err != nil {
				return nil, err
			}
			if rec.on {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
		rec.on = true
		m.set("trace.overhead_pct", 100*ratio(median(on)-median(off), median(off)), "%")
	}
	m.set("serve.handler_us_per_hist_point", (handlerUS[hotHistory]-handlerUS[mixHistory])/float64(hotHistory-mixHistory), "us")

	// Model load: a one-slot gateway asked for two models in turn misses
	// every time, so each predict is production pointer + blob fetch +
	// decode through the wrapped Source.
	cold := serve.New(src, serve.Options{MaxModels: 1, RefreshInterval: -1})
	defer cold.Close()
	fctx := forecastContext(histories(cfg.seed*1000+900, 1, mixHistory)[0])
	mark := rec.mark()
	nl := max(n/4, 20)
	missUS, err := rung(nl, max(warm/4, 2), nil, func(i int) error {
		id := rec.begin("serve.predict_miss")
		defer rec.end(id)
		_, err := cold.PredictCtx(ctx, ids[1+i%2], fctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	tot, self := selfTimes(rec.since(mark))
	m.set("serve.load_us", missUS, "us")
	m.set("serve.source_wait_us", tot["serve.predict_miss"]-self["serve.predict_miss"], "us")
	return budgets, nil
}
