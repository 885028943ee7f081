package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gallery/internal/api"
	"gallery/internal/client"
	"gallery/internal/forecast"
)

// epoch anchors every generated series and request time, in UTC so the
// hour/weekday features survive the JSON round trip unchanged.
var epoch = time.Date(2019, 6, 3, 0, 0, 0, 0, time.UTC)

// histories builds n demand histories of `points` hourly observations and
// the request each one becomes.
func histories(seed int64, n, points int) []api.PredictRequest {
	out := make([]api.PredictRequest, n)
	for i := range out {
		s := forecast.Generate(forecast.CityConfig{
			Name: "h", Base: 80 + float64(i), GrowthPerWeek: 2, DailyAmp: 18, WeeklyAmp: 9, NoiseStd: 2, Seed: seed + int64(i),
		}, epoch, time.Hour, points)
		out[i] = api.PredictRequest{History: s.Values(), Time: epoch.Add(time.Duration(points) * time.Hour)}
	}
	return out
}

func forecastContext(r api.PredictRequest) forecast.Context {
	return forecast.Context{History: r.History, Time: r.Time}
}

// trainAR fits one LinearAR on two months of seeded hourly demand.
func trainAR(seed int64, lags int) (*forecast.LinearAR, error) {
	series := forecast.Generate(forecast.CityConfig{
		Name: "train", Base: 100, GrowthPerWeek: 3, DailyAmp: 20, WeeklyAmp: 10, NoiseStd: 2, Seed: seed,
	}, epoch, time.Hour, 24*56)
	m := &forecast.LinearAR{Lags: lags}
	return m, m.Train(series)
}

// publish uploads a learner as a new instance of a model (born promoted)
// and returns its id and the user bytes sent.
func publish(cl *client.Client, modelID string, m forecast.Model) (string, int64, error) {
	blob, err := forecast.Encode(m)
	if err != nil {
		return "", 0, err
	}
	req := api.UploadInstanceRequest{ModelID: modelID, Name: "demand", City: "sf", Framework: "linear_ar", Blob: blob}
	in, err := cl.UploadInstance(req)
	return in.ID, uploadUserBytes(req), err
}

func registerDemandModel(cl *client.Client, k int) (string, int64, error) {
	req := api.RegisterModelRequest{
		BaseVersionID: fmt.Sprintf("demand_%03d", k), Project: "marketplace", Name: fmt.Sprintf("demand_%03d", k),
		Owner: "bench", Team: "forecasting", Domain: "UberX",
	}
	m, err := cl.RegisterModel(req)
	return m.ID, registerUserBytes(req), err
}

// ---------------------------------------------------------------------
// predict_hot

const (
	hotModels    = 8   // fits the gateway's 64-model LRU
	hotHistory   = 672 // a month of hourly demand, about 8 KB of JSON
	hotHistories = 16
)

type predictHot struct {
	models   []*forecast.LinearAR
	reqs     []api.PredictRequest
	expected [][]float64 // [model][history]

	modelIDs []string
	instIDs  []string
	sent     int64
}

func (w *predictHot) name() string                { return "predict_hot" }
func (w *predictHot) stackOpts() (bool, []string) { return false, nil }
func (w *predictHot) userBytes() int64            { return w.sent }
func (w *predictHot) ladderOp() string            { return "predict" }

func (w *predictHot) generate(cfg *config) error {
	w.reqs = histories(cfg.seed*1000+500, hotHistories, hotHistory)
	w.models = make([]*forecast.LinearAR, hotModels)
	w.expected = make([][]float64, hotModels)
	for k := range w.models {
		m, err := trainAR(cfg.seed*1000+int64(k), 48)
		if err != nil {
			return err
		}
		w.models[k] = m
		w.expected[k] = make([]float64, len(w.reqs))
		for h, r := range w.reqs {
			w.expected[k][h] = m.Forecast(forecastContext(r))
		}
	}
	return nil
}

func (w *predictHot) setUp(st *stack, cfg *config) error {
	reg := st.registry()
	w.modelIDs, w.instIDs, w.sent = make([]string, hotModels), make([]string, hotModels), 0
	for k, m := range w.models {
		id, n, err := registerDemandModel(reg, k)
		if err != nil {
			return err
		}
		inst, n2, err := publish(reg, id, m)
		if err != nil {
			return err
		}
		w.modelIDs[k], w.instIDs[k] = id, inst
		w.sent += n + n2
	}
	// Warm-up: every model loaded, every connection open.
	gw := st.gateway()
	for i := 0; i < 20*hotModels; i++ {
		if err := w.predict(gw, i%hotModels, i%len(w.reqs)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// predict issues one request and checks the whole answer.
func (w *predictHot) predict(gw *client.Client, k, h int) error {
	resp, err := gw.Predict(w.modelIDs[k], w.reqs[h])
	if err != nil {
		return err
	}
	if resp.Value != w.expected[k][h] {
		return fmt.Errorf("model %d history %d: value %v, want %v", k, h, resp.Value, w.expected[k][h])
	}
	if resp.InstanceID != w.instIDs[k] || resp.Stale {
		return fmt.Errorf("model %d answered by instance %s (stale=%v), promoted is %s", k, resp.InstanceID, resp.Stale, w.instIDs[k])
	}
	return nil
}

func (w *predictHot) run(st *stack, cfg *config) loadResult {
	gws := make([]*client.Client, cfg.clients)
	ns := make([]int, cfg.clients)
	for c := range gws {
		gws[c] = st.gateway()
	}
	return closedLoop(cfg.clients, until(cfg.duration), func(c int) error {
		n := ns[c]
		ns[c]++
		// Round-robin over the models, each client starting elsewhere.
		return w.predict(gws[c], (n+c*hotModels/cfg.clients)%hotModels, (n*7+c)%len(w.reqs))
	})
}

// verify: after the registry crashed and came back, every model's
// promoted pointer and blob are what was acknowledged.
func (w *predictHot) verify(st *stack) (int, int) {
	return verifyProduction(st.registry(), w.modelIDs, w.instIDs)
}

func (w *predictHot) report(m *metrics) {}

// verifyProduction checks, model by model, that the registry names the
// expected promoted instance and still serves its blob.
func verifyProduction(reg *client.Client, modelIDs, instIDs []string) (checked, wrong int) {
	for k, id := range modelIDs {
		checked++
		v, err := reg.ProductionVersion(id)
		if err != nil || v.InstanceID != instIDs[k] {
			wrong++
			continue
		}
		if blob, err := reg.FetchBlob(v.InstanceID); err != nil || len(blob) == 0 {
			wrong++
		}
	}
	return checked, wrong
}

// ---------------------------------------------------------------------
// deploy_mixed

const (
	mixModels    = 256 // four times the gateway's LRU
	mixHot       = 32  // models the publisher keeps re-deploying
	mixHistory   = 48
	mixHistories = 16
	mixPace      = 100 * time.Millisecond
	mixRefresh   = 500 * time.Millisecond
	// mixStaleAfter is how long after a promotion was acknowledged a
	// prediction may still name the previous instance: four refresh
	// periods, generous enough for a descheduled sandbox, far too short
	// for a hot swap that does not work.
	mixStaleAfter = 4 * mixRefresh
)

// generation is one published instance of a model.
type generation struct {
	id    string
	model *forecast.LinearAR
	acked time.Time
}

type prediction struct {
	model, hist int
	instance    string
	value       float64
	sent, done  time.Time
}

type deployMixed struct {
	base []*forecast.LinearAR
	reqs []api.PredictRequest
	cdf  []float64 // Zipf(s=1) over model ranks

	modelIDs []string
	sent     int64

	mu   sync.Mutex
	gens [][]generation // [model] oldest first

	publishErrs int
	preds       []prediction
	swapLagsMS  []float64
}

func (w *deployMixed) name() string     { return "deploy_mixed" }
func (w *deployMixed) userBytes() int64 { return w.sent }
func (w *deployMixed) ladderOp() string { return "predict_h48" }
func (w *deployMixed) stackOpts() (bool, []string) {
	return false, []string{"-refresh", mixRefresh.String(), "-max-models", "64"}
}

func (w *deployMixed) generate(cfg *config) error {
	w.reqs = histories(cfg.seed*1000+700, mixHistories, mixHistory)
	w.base = make([]*forecast.LinearAR, mixModels)
	for k := range w.base {
		m, err := trainAR(cfg.seed*1000+int64(k), 24)
		if err != nil {
			return err
		}
		w.base[k] = m
	}
	w.cdf = make([]float64, mixModels)
	sum := 0.0
	for r := range w.cdf {
		sum += 1 / float64(r+1)
		w.cdf[r] = sum
	}
	for r := range w.cdf {
		w.cdf[r] /= sum
	}
	return nil
}

// retrained returns generation g of model k: the trained coefficients
// nudged, so every instance of a model forecasts a different value and an
// answer identifies the instance that made it.
func (w *deployMixed) retrained(k, g int) *forecast.LinearAR {
	m := *w.base[k]
	m.Theta = append([]float64(nil), m.Theta...)
	m.Theta[0] += float64(g) * 0.25
	return &m
}

func (w *deployMixed) setUp(st *stack, cfg *config) error {
	w.modelIDs, w.sent = make([]string, mixModels), 0
	w.gens = make([][]generation, mixModels)
	w.preds, w.swapLagsMS, w.publishErrs = nil, nil, 0
	// Two seeding connections, like the two load connections.
	var wg sync.WaitGroup
	errs := make([]error, cfg.clients)
	sent := make([]int64, cfg.clients)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reg := st.registry()
			for k := c; k < mixModels; k += cfg.clients {
				id, n, err := registerDemandModel(reg, k)
				if err != nil {
					errs[c] = err
					return
				}
				m := w.retrained(k, 0)
				inst, n2, err := publish(reg, id, m)
				if err != nil {
					errs[c] = err
					return
				}
				w.modelIDs[k] = id
				w.gens[k] = []generation{{id: inst, model: m, acked: time.Now()}}
				sent[c] += n + n2
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return err
		}
		w.sent += sent[c]
	}
	// Warm-up: the LRU full of the hottest models.
	gw := st.gateway()
	for k := 0; k < 64; k++ {
		if _, err := gw.Predict(w.modelIDs[k], w.reqs[0]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *deployMixed) run(st *stack, cfg *config) loadResult {
	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		w.publisher(st.registry(), stop)
	}()
	gw := st.gateway()
	rng := rand.New(rand.NewSource(cfg.seed))
	w.preds = make([]prediction, 0, 1<<16)
	res := closedLoop(1, until(cfg.duration), func(int) error {
		k := sort.SearchFloat64s(w.cdf, rng.Float64())
		h := rng.Intn(len(w.reqs))
		p := prediction{model: k, hist: h, sent: time.Now()}
		resp, err := gw.Predict(w.modelIDs[k], w.reqs[h])
		if err != nil {
			return err
		}
		p.instance, p.value, p.done = resp.InstanceID, resp.Value, time.Now()
		w.preds = append(w.preds, p)
		return nil
	})
	close(stop)
	pub.Wait()
	// Answers are judged once every publish is known: a gateway may serve
	// a new instance before the publisher has seen its own ack.
	wrong := w.judge()
	res.failed += int64(wrong + w.publishErrs)
	if wrong > 0 && res.firstErr == nil {
		res.firstErr = fmt.Errorf("%d predictions named a wrong or long-replaced instance, or a wrong value", wrong)
	}
	res.failed += int64(w.awaitVisible(gw))
	return res
}

// publisher re-deploys the hot models round-robin, one upload (born
// promoted) per mixPace. Paced, not closed-loop, so both sides of a
// comparison put the same write load on the registry.
func (w *deployMixed) publisher(reg *client.Client, stop <-chan struct{}) {
	tick := time.NewTicker(mixPace)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		k := n % mixHot
		w.mu.Lock()
		g := len(w.gens[k])
		w.mu.Unlock()
		m := w.retrained(k, g)
		inst, sent, err := publish(reg, w.modelIDs[k], m)
		w.mu.Lock()
		if err != nil {
			w.publishErrs++
		} else {
			w.gens[k] = append(w.gens[k], generation{id: inst, model: m, acked: time.Now()})
			w.sent += sent
		}
		w.mu.Unlock()
	}
}

// judge checks every recorded prediction: it names an instance of its own
// model, the value is that instance's forecast, and the instance had not
// been replaced for longer than mixStaleAfter when the request was sent.
// It also measures how long each promotion took to reach traffic.
func (w *deployMixed) judge() (wrong int) {
	firstSeen := map[string]time.Time{}
	for _, p := range w.preds {
		gens := w.gens[p.model]
		g := -1
		for i := range gens {
			if gens[i].id == p.instance {
				g = i
			}
		}
		switch {
		case g < 0:
			wrong++
		case p.value != gens[g].model.Forecast(forecastContext(w.reqs[p.hist])):
			wrong++
		case g+1 < len(gens) && p.sent.Sub(gens[g+1].acked) > mixStaleAfter:
			wrong++
		}
		if _, ok := firstSeen[p.instance]; !ok {
			firstSeen[p.instance] = p.done
		}
	}
	for _, gens := range w.gens[:mixHot] {
		for _, g := range gens[1:] {
			if t, ok := firstSeen[g.id]; ok {
				w.swapLagsMS = append(w.swapLagsMS, float64(t.Sub(g.acked))/float64(time.Millisecond))
			}
		}
	}
	sort.Float64s(w.swapLagsMS)
	return wrong
}

// awaitVisible gives the gateway mixStaleAfter to show the newest
// instance of every hot model it holds, and counts those it does not.
func (w *deployMixed) awaitVisible(gw *client.Client) (invisible int) {
	newest := map[string]string{}
	for k := 0; k < mixHot; k++ {
		newest[w.modelIDs[k]] = w.gens[k][len(w.gens[k])-1].id
	}
	deadline := time.Now().Add(mixStaleAfter)
	for {
		invisible = 0
		status, err := gw.ServingStatus()
		if err != nil {
			return mixHot
		}
		for _, s := range status {
			if want, ok := newest[s.ModelID]; ok && s.InstanceID != want {
				invisible++
			}
		}
		if invisible == 0 || time.Now().After(deadline) {
			return invisible
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (w *deployMixed) verify(st *stack) (int, int) {
	inst := make([]string, mixModels)
	for k := range inst {
		inst[k] = w.gens[k][len(w.gens[k])-1].id
	}
	return verifyProduction(st.registry(), w.modelIDs, inst)
}

func (w *deployMixed) report(m *metrics) {
	m.set("serve.swap_lag_p50_ms", quantile(w.swapLagsMS, 0.5), "ms")
}
