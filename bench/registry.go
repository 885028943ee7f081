package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/client"
)

const (
	regModels   = 400
	regBases    = 40 // base version ids; a lineage spans ten models
	regBlobSize = 4 << 10
	regScope    = "validation"
	// mapeCut selects about a tenth of the instances in the metric join.
	mapeCut = 0.05
	// writeItersPerSecond sizes registry_write's fixed list from
	// --seconds: the parent commit works through about this many
	// iterations a second with -fsync on the sizing sandbox, so the list
	// takes about --seconds there. It is a constant of the benchmark, not
	// a measurement: both sides of a comparison get the same list.
	writeItersPerSecond = 200
	// readSeedIters is the lifecycle list registry_read replays as set-up.
	readSeedIters = 600
)

var regCities = []string{
	"sf", "nyc", "la", "chi", "sea", "bos", "atx", "den", "mia", "phx",
	"lon", "par", "ams", "ber", "mad", "sao", "mex", "del", "syd", "tok",
}

// iteration is one step of a training pipeline's life against the
// registry: upload an instance, report its validation metrics, and now and
// then promote an older instance or retire this one.
type iteration struct {
	model     int
	blob      []byte
	sha       [32]byte
	metrics   map[string]float64
	promote   bool // also promote the model's first (seed) instance
	deprecate bool // also deprecate the instance just uploaded
}

// instance is what the benchmark knows about an acknowledged upload.
type instance struct {
	id         string
	model      int
	sha        [32]byte
	mape       float64
	hasMetrics bool
	deprecated bool
}

// reqTimes collects per-request latencies of one client.
type reqTimes map[string][]time.Duration

func (t reqTimes) time(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	if err == nil {
		t[name] = append(t[name], time.Since(t0))
	}
	return err
}

// lifecycle is the seeded registry fixture both registry workloads use:
// registry_write times it, registry_read replays it as set-up.
type lifecycle struct {
	iters []iteration

	// Filled by register and apply; reset by register.
	modelIDs  []string
	seedInst  []string // first instance of each model, the promotion target
	mu        sync.Mutex
	instances []instance
	prod      []string // expected promoted instance per model
	sent      atomic.Int64
}

func modelCity(m int) string { return regCities[m%len(regCities)] }
func modelBase(m int) string { return fmt.Sprintf("base_%02d", m%regBases) }

func seededBlob(rng *rand.Rand) ([]byte, [32]byte) {
	b := make([]byte, regBlobSize)
	rng.Read(b)
	return b, sha256.Sum256(b)
}

func newLifecycle(seed int64, n int) *lifecycle {
	rng := rand.New(rand.NewSource(seed))
	lc := &lifecycle{iters: make([]iteration, n)}
	for i := range lc.iters {
		it := &lc.iters[i]
		it.model = i % regModels
		it.blob, it.sha = seededBlob(rng)
		it.metrics = map[string]float64{"mape": rng.Float64() * 0.5, "bias": rng.Float64()*0.2 - 0.1, "r2": 0.5 + rng.Float64()*0.5}
		it.promote = i%10 == 0
		it.deprecate = i%20 == 10
	}
	return lc
}

func registerUserBytes(r api.RegisterModelRequest) int64 {
	return int64(len(r.BaseVersionID) + len(r.Project) + len(r.Name) + len(r.Owner) + len(r.Team) + len(r.Domain) + len(r.Description))
}

func uploadUserBytes(r api.UploadInstanceRequest) int64 {
	return int64(len(r.Blob)+len(r.ModelID)+len(r.Name)+len(r.City)+len(r.Framework)+len(r.TrainingData)+
		len(r.CodePointer)+len(r.Hyperparams)+len(r.Features)) + 16 // seed, epochs
}

func metricsUserBytes(values map[string]float64) int64 {
	n := int64(len(regScope))
	for name := range values {
		n += int64(len(name)) + 8
	}
	return n
}

func uploadRequest(modelID string, m, i int, blob []byte) api.UploadInstanceRequest {
	return api.UploadInstanceRequest{
		ModelID: modelID, Name: fmt.Sprintf("demand_%03d", m), City: modelCity(m), Framework: "linear_ar",
		TrainingData: fmt.Sprintf("hdfs://warehouse/demand/%s/run_%06d", modelCity(m), i),
		CodePointer:  fmt.Sprintf("git://forecasting/demand@%08x", uint32(i)*2654435761),
		Seed:         int64(i), Epochs: 10,
		Hyperparams: `{"lags":48,"ridge":1e-6,"horizon":1}`,
		Features:    "lags[1..48],hour_sin,hour_cos,dow_sin,dow_cos",
		Blob:        blob,
	}
}

// register creates the models, one seed instance each, and commits one
// metric-watching rule so rule dispatch is live on every metric insert.
func (lc *lifecycle) register(st *stack, clients int, seed int64) error {
	lc.modelIDs, lc.seedInst = make([]string, regModels), make([]string, regModels)
	lc.prod = make([]string, regModels)
	lc.instances = make([]instance, 0, regModels+len(lc.iters))
	lc.sent.Store(0)
	seeds := make([]instance, regModels)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reg := st.registry()
			rng := rand.New(rand.NewSource(seed*131 + int64(c)))
			for m := c; m < regModels; m += clients {
				req := api.RegisterModelRequest{
					BaseVersionID: modelBase(m), Project: "marketplace", Name: fmt.Sprintf("demand_%03d", m),
					Owner: "bench", Team: "forecasting", Domain: "UberX", Description: "hourly demand forecast, " + modelCity(m),
				}
				mod, err := reg.RegisterModel(req)
				if err != nil {
					errs[c] = err
					return
				}
				blob, sha := seededBlob(rng)
				up := uploadRequest(mod.ID, m, -1-m, blob)
				in, err := reg.UploadInstance(up)
				if err != nil {
					errs[c] = err
					return
				}
				lc.modelIDs[m], lc.seedInst[m], lc.prod[m] = mod.ID, in.ID, in.ID
				seeds[m] = instance{id: in.ID, model: m, sha: sha}
				lc.sent.Add(registerUserBytes(req) + uploadUserBytes(up))
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	lc.instances = append(lc.instances, seeds...)
	rule, err := json.Marshal(map[string]any{
		"uuid": "bench-mape-watch", "team": "forecasting", "name": "mape watch", "kind": "action",
		"when":             "metrics.mape > 100",
		"callback_actions": []map[string]any{{"action": "alert", "params": map[string]any{"message": "mape out of range"}}},
	})
	if err != nil {
		return err
	}
	_, err = st.registry().CommitRules("bench", "watch mape", []json.RawMessage{rule}, nil)
	return err
}

// apply performs iteration i and records what was acknowledged.
func (lc *lifecycle) apply(reg *client.Client, i int, t reqTimes) error {
	it := &lc.iters[i]
	up := uploadRequest(lc.modelIDs[it.model], it.model, i, it.blob)
	var in api.Instance
	err := t.time("upload", func() (err error) { in, err = reg.UploadInstance(up); return })
	if err != nil {
		return fmt.Errorf("iteration %d upload: %w", i, err)
	}
	if in.ModelID != up.ModelID || in.City != up.City || in.BlobLocation == "" {
		return fmt.Errorf("iteration %d: upload acknowledged as %+v", i, in)
	}
	if err := t.time("insert_metrics", func() error { return reg.InsertMetrics(in.ID, regScope, it.metrics) }); err != nil {
		return fmt.Errorf("iteration %d metrics: %w", i, err)
	}
	prod := in.ID // an upload is born promoted
	if it.promote {
		if err := t.time("promote", func() error { return reg.PromoteInstance(lc.seedInst[it.model]) }); err != nil {
			return fmt.Errorf("iteration %d promote: %w", i, err)
		}
		prod = lc.seedInst[it.model]
	}
	if it.deprecate {
		if err := reg.DeprecateInstance(in.ID); err != nil {
			return fmt.Errorf("iteration %d deprecate: %w", i, err)
		}
	}
	lc.sent.Add(uploadUserBytes(up) + metricsUserBytes(it.metrics))
	lc.mu.Lock()
	lc.instances = append(lc.instances, instance{
		id: in.ID, model: it.model, sha: it.sha, mape: it.metrics["mape"], hasMetrics: true, deprecated: it.deprecate,
	})
	// Iterations on one model lie regModels apart in the list, so with a
	// handful of clients they never overlap and list order is ack order.
	lc.prod[it.model] = prod
	lc.mu.Unlock()
	return nil
}

// replay works through the whole list with `clients` publishers sharing
// one cursor.
func (lc *lifecycle) replay(st *stack, clients int) (loadResult, []reqTimes) {
	var cursor atomic.Int64
	regs := make([]*client.Client, clients)
	times := make([]reqTimes, clients)
	claimed := make([]int, clients)
	for c := range regs {
		regs[c], times[c] = st.registry(), reqTimes{}
	}
	res := closedLoop(clients, func(c int, _ time.Duration) bool {
		claimed[c] = int(cursor.Add(1)) - 1
		return claimed[c] < len(lc.iters)
	}, func(c int) error {
		return lc.apply(regs[c], claimed[c], times[c])
	})
	res.fixedCount = true
	return res, times
}

// verifyAll reads back everything acknowledged: every instance row, its
// flags, a sample of blobs and metric series, every promoted pointer, and
// the table counts.
func (lc *lifecycle) verifyAll(reg *client.Client) (checked, wrong int) {
	for n, want := range lc.instances {
		checked++
		got, err := reg.GetInstance(want.id)
		if err != nil || got.ID != want.id || got.ModelID != lc.modelIDs[want.model] || got.Deprecated != want.deprecated {
			wrong++
			continue
		}
		if n%16 != 0 {
			continue
		}
		checked += 2
		if blob, err := reg.FetchBlob(want.id); err != nil || sha256.Sum256(blob) != want.sha {
			wrong++
		}
		series, err := reg.MetricSeries(want.id, "mape", regScope)
		switch {
		case err != nil:
			wrong++
		case want.hasMetrics && (len(series) != 1 || series[0].Value != want.mape):
			wrong++
		case !want.hasMetrics && len(series) != 0:
			wrong++
		}
	}
	c2, w2 := verifyProduction(reg, lc.modelIDs, lc.prod)
	checked, wrong = checked+c2, wrong+w2
	checked++
	withMetrics := 0
	for _, in := range lc.instances {
		if in.hasMetrics {
			withMetrics++
		}
	}
	if s, err := reg.Stats(); err != nil || s.Models != regModels || s.Instances != len(lc.instances) || s.Metrics != 3*withMetrics {
		wrong++
	}
	return checked, wrong
}

func mergeTimes(times []reqTimes) reqTimes {
	out := reqTimes{}
	for _, t := range times {
		for k, v := range t {
			out[k] = append(out[k], v...)
		}
	}
	return out
}

func reportTimes(m *metrics, t reqTimes, names ...string) {
	for _, n := range names {
		m.set("client."+n+"_p50_ms", quantile(durationsMS(t[n]), 0.5), "ms")
	}
}

// ---------------------------------------------------------------------
// registry_write

type registryWrite struct {
	lc    *lifecycle
	times reqTimes
}

func (w *registryWrite) name() string                { return "registry_write" }
func (w *registryWrite) stackOpts() (bool, []string) { return true, nil } // fsync per WAL append
func (w *registryWrite) userBytes() int64            { return w.lc.sent.Load() }
func (w *registryWrite) ladderOp() string            { return "upload" }

func (w *registryWrite) generate(cfg *config) error {
	w.lc = newLifecycle(cfg.seed, cfg.writeIters)
	return nil
}

func (w *registryWrite) setUp(st *stack, cfg *config) error {
	return w.lc.register(st, cfg.clients, cfg.seed)
}

// run is fixed-count, not fixed-time: the cost of a write grows with the
// tables, and a faster build must not be charged for reaching bigger ones.
func (w *registryWrite) run(st *stack, cfg *config) loadResult {
	res, times := w.lc.replay(st, cfg.clients)
	w.times = mergeTimes(times)
	return res
}

func (w *registryWrite) verify(st *stack) (int, int) { return w.lc.verifyAll(st.registry()) }

func (w *registryWrite) report(m *metrics) {
	reportTimes(m, w.times, "upload", "insert_metrics", "promote")
}

// ---------------------------------------------------------------------
// registry_read

type registryRead struct {
	lc    *lifecycle
	times reqTimes

	// Expected answers, derived from what set-up acknowledged.
	byCity     map[string]int // live instances per city
	byCityGood map[string]int // ... whose mape is under mapeCut
	byBase     map[string]int // instances per base version, retired or not
	shaByID    map[string][32]byte
}

func (w *registryRead) name() string                { return "registry_read" }
func (w *registryRead) stackOpts() (bool, []string) { return false, nil } // no fsync: reads are measured
func (w *registryRead) userBytes() int64            { return w.lc.sent.Load() }
func (w *registryRead) ladderOp() string            { return "search" }

func (w *registryRead) generate(cfg *config) error {
	w.lc = newLifecycle(cfg.seed, cfg.seedIters)
	return nil
}

func (w *registryRead) setUp(st *stack, cfg *config) error {
	if err := w.lc.register(st, cfg.clients, cfg.seed); err != nil {
		return err
	}
	res, _ := w.lc.replay(st, cfg.clients)
	if res.failed > 0 {
		return fmt.Errorf("seeding: %d of %d iterations failed: %w", res.failed, res.attempted, res.firstErr)
	}
	w.byCity, w.byCityGood, w.byBase = map[string]int{}, map[string]int{}, map[string]int{}
	w.shaByID = make(map[string][32]byte, len(w.lc.instances))
	for _, in := range w.lc.instances {
		w.shaByID[in.id] = in.sha
		w.byBase[modelBase(in.model)]++
		if in.deprecated {
			continue
		}
		w.byCity[modelCity(in.model)]++
		if in.hasMetrics && in.mape < mapeCut {
			w.byCityGood[modelCity(in.model)]++
		}
	}
	// Warm-up: one transaction per city.
	reg, t := st.registry(), reqTimes{}
	rng := rand.New(rand.NewSource(cfg.seed))
	for range regCities {
		if err := w.transaction(reg, rng, t); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

const searchLimit = 25

func citySearch(city string, metric bool) api.SearchRequest {
	req := api.SearchRequest{Limit: searchLimit, Constraints: []api.SearchConstraint{{Field: "city", Operator: "equal", Value: city}}}
	if metric {
		req.Constraints = append(req.Constraints,
			api.SearchConstraint{Field: "metricName", Operator: "equal", Value: "mape"},
			api.SearchConstraint{Field: "metricScope", Operator: "equal", Value: regScope},
			api.SearchConstraint{Field: "metricValue", Operator: "smaller_than", Number: mapeCut})
	}
	return req
}

// checkSearch: the right number of rows, all of the city, none retired,
// newest first.
func checkSearch(what string, got []api.Instance, city string, live int) error {
	want := min(live, searchLimit)
	if len(got) != want {
		return fmt.Errorf("%s %s: %d rows, want %d", what, city, len(got), want)
	}
	for i, in := range got {
		if in.City != city || in.Deprecated {
			return fmt.Errorf("%s %s: row %d is %s deprecated=%v", what, city, i, in.City, in.Deprecated)
		}
		if i > 0 && in.Created.After(got[i-1].Created) {
			return fmt.Errorf("%s %s: row %d is newer than row %d", what, city, i, i-1)
		}
	}
	return nil
}

// transaction is one model selection as a consumer performs it: find the
// city's recent instances, narrow by validation error, read the chosen
// one's metadata and blob, then its lineage and its audit trail.
func (w *registryRead) transaction(reg *client.Client, rng *rand.Rand, t reqTimes) error {
	city := regCities[rng.Intn(len(regCities))]
	var found, good, line []api.Instance
	if err := t.time("search", func() (err error) { found, err = reg.Search(citySearch(city, false)); return }); err != nil {
		return err
	}
	if err := checkSearch("search", found, city, w.byCity[city]); err != nil {
		return err
	}
	if err := t.time("search_metric", func() (err error) { good, err = reg.Search(citySearch(city, true)); return }); err != nil {
		return err
	}
	if err := checkSearch("metric search", good, city, w.byCityGood[city]); err != nil {
		return err
	}
	pick := found[rng.Intn(len(found))]
	var in api.Instance
	if err := t.time("get_instance", func() (err error) { in, err = reg.GetInstance(pick.ID); return }); err != nil {
		return err
	}
	if in.ID != pick.ID || in.ModelID != pick.ModelID || in.TrainingData != pick.TrainingData {
		return fmt.Errorf("get instance %s: got %+v", pick.ID, in)
	}
	var blob []byte
	if err := t.time("fetch_blob", func() (err error) { blob, err = reg.FetchBlob(pick.ID); return }); err != nil {
		return err
	}
	if want, ok := w.shaByID[pick.ID]; !ok || sha256.Sum256(blob) != want {
		return fmt.Errorf("blob of %s: sha mismatch", pick.ID)
	}
	if err := t.time("lineage", func() (err error) { line, err = reg.Lineage(pick.BaseVersionID); return }); err != nil {
		return err
	}
	if len(line) != w.byBase[pick.BaseVersionID] {
		return fmt.Errorf("lineage %s: %d instances, want %d", pick.BaseVersionID, len(line), w.byBase[pick.BaseVersionID])
	}
	for i := 1; i < len(line); i++ {
		if line[i].Created.Before(line[i-1].Created) {
			return fmt.Errorf("lineage %s: not oldest first at %d", pick.BaseVersionID, i)
		}
	}
	var evs []api.AuditEvent
	if err := t.time("timeline", func() (err error) { evs, err = reg.EntityTimeline(pick.ID, 0); return }); err != nil {
		return err
	}
	for _, ev := range evs {
		if ev.Action == audit.ActionInstanceUpload && ev.EntityID == pick.ID {
			return nil
		}
	}
	return fmt.Errorf("timeline of %s: no upload event among %d", pick.ID, len(evs))
}

func (w *registryRead) run(st *stack, cfg *config) loadResult {
	regs := make([]*client.Client, cfg.clients)
	rngs := make([]*rand.Rand, cfg.clients)
	times := make([]reqTimes, cfg.clients)
	for c := range regs {
		regs[c], rngs[c], times[c] = st.registry(), rand.New(rand.NewSource(cfg.seed*17+int64(c))), reqTimes{}
	}
	res := closedLoop(cfg.clients, until(cfg.duration), func(c int) error {
		return w.transaction(regs[c], rngs[c], times[c])
	})
	w.times = mergeTimes(times)
	return res
}

func (w *registryRead) verify(st *stack) (int, int) { return w.lc.verifyAll(st.registry()) }

func (w *registryRead) report(m *metrics) {
	reportTimes(m, w.times, "search", "search_metric", "get_instance", "fetch_blob", "lineage", "timeline")
}
