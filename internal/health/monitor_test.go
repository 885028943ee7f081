package health

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/obs/sketch"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

var t0 = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

// captureEvents records everything the monitor publishes. all returns the
// drift/skew episodes (the events that name an instance, which rules act
// on); changes returns the status changes in order.
type captureEvents struct {
	mu      sync.Mutex
	events  []capturedEvent
	changed []string
	// mon, when set, is called back from inside every publish: it would
	// deadlock if the monitor published under its own lock.
	mon *Monitor
}

type capturedEvent struct {
	inst   uuid.UUID
	event  string
	fields map[string]float64
}

func (c *captureEvents) publish(_ context.Context, ev obs.Event) {
	if c.mon != nil {
		c.mon.List()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Kind != "health" || ev.ModelID == "" {
		panic(fmt.Sprintf("monitor published a malformed event: %+v", ev))
	}
	if ev.Instance.IsNil() {
		c.changed = append(c.changed, fmt.Sprintf("%v->%s", ev.Fields["from"], ev.Name))
		return
	}
	fields := make(map[string]float64, len(ev.Fields))
	for k, v := range ev.Fields {
		fields[k] = v.(float64)
	}
	c.events = append(c.events, capturedEvent{inst: ev.Instance, event: ev.Name, fields: fields})
}

func (c *captureEvents) changes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.changed...)
}

func (c *captureEvents) all() []capturedEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]capturedEvent(nil), c.events...)
}

type harness struct {
	g     *core.Registry
	clk   *clock.Mock
	sink  *captureEvents
	mon   *Monitor
	reg   *obs.Registry
	model *core.Model
	inst  *core.Instance
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	clk := clock.NewMock(t0)
	g, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clk,
		UUIDs: uuid.NewSeeded(7),
		Obs:   obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := g.RegisterModel(core.ModelSpec{
		BaseVersionID: "bv-demand", Project: "forecasting", Name: "demand", Domain: "UberX",
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := g.UploadInstance(core.InstanceSpec{ModelID: m.ID, City: "sf", Name: "demand"}, []byte("blob"))
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureEvents{}
	reg := obs.NewRegistry()
	cfg.Interval = -1 // tests drive Evaluate directly
	cfg.Obs = reg
	cfg.Events = sink.publish
	sink.mon = New(g, cfg)
	return &harness{g: g, clk: clk, sink: sink, mon: sink.mon, reg: reg, model: m, inst: in}
}

// window builds one observation whose value sketch holds n draws from
// N(mean, std), deterministic per seed.
func (h *harness) window(i int, mean, std float64, n int) api.HealthObservation {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	s := sketch.New(sketch.Config{})
	lat := sketch.New(sketch.Config{Lo: 1e-6, Hi: 1e3, Buckets: 128})
	for j := 0; j < n; j++ {
		s.Observe(mean + std*rng.NormFloat64())
		lat.Observe(0.001 + 0.0005*rng.Float64())
	}
	start := t0.Add(time.Duration(i) * time.Minute)
	return api.HealthObservation{
		ModelID:     h.model.ID.String(),
		InstanceID:  h.inst.ID.String(),
		WindowStart: start,
		WindowEnd:   start.Add(time.Minute),
		Requests:    int64(n),
		Values:      s.Snapshot(),
		Latency:     lat.Snapshot(),
	}
}

func (h *harness) ingest(t *testing.T, obs ...api.HealthObservation) {
	t.Helper()
	resp, err := h.mon.Ingest(context.Background(), api.HealthObservationsRequest{
		Gateway: "gw-test", Observations: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rejected != 0 || resp.Accepted != len(obs) {
		t.Fatalf("ingest = %+v, want %d accepted", resp, len(obs))
	}
}

func (h *harness) health(t *testing.T) api.ModelHealth {
	t.Helper()
	mh, ok := h.mon.ModelHealth(h.model.ID.String())
	if !ok {
		t.Fatal("model not tracked")
	}
	return mh
}

func hasReason(mh api.ModelHealth, substr string) bool {
	for _, r := range mh.Reasons {
		if strings.Contains(r, substr) {
			return true
		}
	}
	return false
}

func TestMonitorCollectingThenHealthy(t *testing.T) {
	h := newHarness(t, Config{ReferenceWindows: 3, LiveWindows: 3})

	// Two windows: reference not yet complete, no live data → unknown.
	h.ingest(t, h.window(0, 200, 20, 100), h.window(1, 200, 20, 100))
	h.mon.Evaluate(context.Background())
	if mh := h.health(t); mh.Status != string(StatusUnknown) || !hasReason(mh, "collecting") {
		t.Fatalf("after 2 windows: %+v", mh)
	}

	// Reference completes, then same-shape live traffic → healthy.
	h.ingest(t, h.window(2, 200, 20, 100), h.window(3, 200, 20, 100), h.window(4, 200, 20, 100))
	h.mon.Evaluate(context.Background())
	mh := h.health(t)
	if mh.Status != string(StatusHealthy) {
		t.Fatalf("status = %s (%v), want healthy; psi=%g", mh.Status, mh.Reasons, mh.PSI)
	}
	if mh.PSI >= 0.1 {
		t.Fatalf("psi = %g for identical distributions, want < 0.1", mh.PSI)
	}
	if mh.ReferenceCount != 300 || mh.LiveCount != 200 {
		t.Fatalf("counts ref=%d live=%d, want 300/200", mh.ReferenceCount, mh.LiveCount)
	}
	if mh.Windows != 5 || mh.Requests != 500 {
		t.Fatalf("windows=%d requests=%d, want 5/500", mh.Windows, mh.Requests)
	}
	if mh.RequestRate <= 0 || mh.LatencyP95MS <= 0 {
		t.Fatalf("rate=%g p95=%gms, want positive", mh.RequestRate, mh.LatencyP95MS)
	}
	if len(h.sink.all()) != 0 {
		t.Fatalf("events on healthy traffic: %+v", h.sink.all())
	}
}

func TestMonitorShiftDegradesAndEmitsOnce(t *testing.T) {
	h := newHarness(t, Config{ReferenceWindows: 3, LiveWindows: 3})
	for i := 0; i < 4; i++ {
		h.ingest(t, h.window(i, 200, 20, 150))
	}
	h.mon.Evaluate(context.Background())
	if mh := h.health(t); mh.Status != string(StatusHealthy) {
		t.Fatalf("pre-shift status = %s (%v)", mh.Status, mh.Reasons)
	}

	// The model's output distribution shifts 1.6x: degraded, one event.
	for i := 4; i < 7; i++ {
		h.ingest(t, h.window(i, 320, 20, 150))
	}
	h.mon.Evaluate(context.Background())
	mh := h.health(t)
	if mh.Status != string(StatusDegraded) || !hasReason(mh, "distribution shifted") {
		t.Fatalf("post-shift: %+v", mh)
	}
	if mh.PSI < 0.25 {
		t.Fatalf("psi = %g after 1.6x shift, want >= 0.25", mh.PSI)
	}
	ev := h.sink.all()
	if len(ev) != 1 || ev[0].event != "drift" || ev[0].inst != h.inst.ID {
		t.Fatalf("events = %+v, want one drift for instance", ev)
	}
	if ev[0].fields["psi"] < 0.25 {
		t.Fatalf("event psi = %g", ev[0].fields["psi"])
	}
	// Re-evaluating the same degradation does not spam the rules engine.
	h.mon.Evaluate(context.Background())
	h.mon.Evaluate(context.Background())
	if got := len(h.sink.all()); got != 1 {
		t.Fatalf("repeated evaluation emitted %d events, want 1", got)
	}

	// Recovery: live ring refills with reference-shaped traffic → healthy,
	// and the next degradation episode emits again.
	for i := 7; i < 10; i++ {
		h.ingest(t, h.window(i, 200, 20, 150))
	}
	h.mon.Evaluate(context.Background())
	if mh := h.health(t); mh.Status != string(StatusHealthy) {
		t.Fatalf("recovery status = %s (%v) psi=%g", mh.Status, mh.Reasons, mh.PSI)
	}
	for i := 10; i < 13; i++ {
		h.ingest(t, h.window(i, 320, 20, 150))
	}
	h.mon.Evaluate(context.Background())
	if got := len(h.sink.all()); got != 2 {
		t.Fatalf("second episode events = %d, want 2 total", got)
	}
	// Every status change was published too, once each, at model scope.
	want := []string{"unknown->healthy", "healthy->degraded", "degraded->healthy", "healthy->degraded"}
	if got := h.sink.changes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("status changes = %v, want %v", got, want)
	}

	// Status gauge mirrors the verdict.
	snap := h.reg.Snapshot()
	name := `health_model_status{model="` + h.model.ID.String() + `"}`
	if snap.Gauges[name] != 3 {
		t.Fatalf("status gauge = %g, want 3 (degraded)", snap.Gauges[name])
	}
}

func TestMonitorWarningBand(t *testing.T) {
	// A small shift lands between the warning and degraded operating
	// points (psi in [0.1, 0.25)) deterministically.
	h := newHarness(t, Config{ReferenceWindows: 3, LiveWindows: 3})
	for i := 0; i < 3; i++ {
		h.ingest(t, h.window(i, 200, 20, 150))
	}
	for i := 3; i < 6; i++ {
		h.ingest(t, h.window(i, 210, 20, 150))
	}
	h.mon.Evaluate(context.Background())
	mh := h.health(t)
	if mh.Status != string(StatusWarning) || !hasReason(mh, "distribution drifting") {
		t.Fatalf("status = %s (%v) psi=%g, want warning", mh.Status, mh.Reasons, mh.PSI)
	}
	if len(h.sink.all()) != 0 {
		t.Fatalf("warning must not emit events: %+v", h.sink.all())
	}
}

func TestMonitorStaleServeWarning(t *testing.T) {
	h := newHarness(t, Config{ReferenceWindows: 1, LiveWindows: 1})
	w := h.window(0, 200, 20, 100)
	w.StaleServes = 80 // 80% of the window served stale
	h.ingest(t, w)
	h.mon.Evaluate(context.Background())
	mh := h.health(t)
	if mh.Status != string(StatusWarning) || !hasReason(mh, "stale") {
		t.Fatalf("status = %s (%v), want stale warning", mh.Status, mh.Reasons)
	}
	if mh.StaleServes != 80 {
		t.Fatalf("stale total = %d", mh.StaleServes)
	}
}

func TestMonitorReferenceResetOnPromotion(t *testing.T) {
	h := newHarness(t, Config{ReferenceWindows: 2, LiveWindows: 2})
	for i := 0; i < 4; i++ {
		h.ingest(t, h.window(i, 200, 20, 150))
	}
	h.mon.Evaluate(context.Background())
	if mh := h.health(t); mh.Status != string(StatusHealthy) {
		t.Fatalf("pre-promotion: %+v", mh)
	}

	// A new instance starts serving with a different output distribution.
	// Without a reference reset this would read as drift; with one, the
	// new model earns a fresh baseline.
	h.clk.Advance(time.Minute)
	in2, err := h.g.UploadInstance(core.InstanceSpec{ModelID: h.model.ID, City: "sf", Name: "demand"}, []byte("blob2"))
	if err != nil {
		t.Fatal(err)
	}
	prev := h.inst
	h.inst = in2
	h.ingest(t, h.window(10, 500, 30, 150))
	h.mon.Evaluate(context.Background())
	mh := h.health(t)
	if mh.Status != string(StatusUnknown) || !hasReason(mh, "collecting") {
		t.Fatalf("post-promotion: %+v", mh)
	}
	if mh.InstanceID != in2.ID.String() {
		t.Fatalf("instance = %s, want %s (was %s)", mh.InstanceID, in2.ID, prev.ID)
	}
	// The new instance settles at its own distribution → healthy there.
	for i := 11; i < 15; i++ {
		h.ingest(t, h.window(i, 500, 30, 150))
	}
	h.mon.Evaluate(context.Background())
	if mh := h.health(t); mh.Status != string(StatusHealthy) {
		t.Fatalf("new baseline: %+v", mh)
	}
	if len(h.sink.all()) != 0 {
		t.Fatalf("promotion emitted events: %+v", h.sink.all())
	}
}

func TestMonitorMetricDriftEscalates(t *testing.T) {
	h := newHarness(t, Config{ReferenceWindows: 1, LiveWindows: 1})
	// Production mape history: five good points, then the drift check's
	// 10-point recent window three times worse.
	history := []float64{0.10, 0.11, 0.09, 0.10, 0.10}
	for i := 0; i < 10; i++ {
		history = append(history, 0.30+0.01*float64(i%3))
	}
	for _, v := range history {
		h.clk.Advance(time.Minute)
		if _, err := h.g.InsertMetric(context.Background(), h.inst.ID, "mape", core.ScopeProduction, v); err != nil {
			t.Fatal(err)
		}
	}
	// Sketches alone look fine — the metric history is what's rotten.
	h.ingest(t, h.window(0, 200, 20, 100), h.window(1, 200, 20, 100))
	h.mon.Evaluate(context.Background())
	mh := h.health(t)
	if mh.Status != string(StatusDegraded) || !hasReason(mh, "mape degraded") {
		t.Fatalf("status = %s (%v), want metric-drift degradation", mh.Status, mh.Reasons)
	}
	if mh.Drift == nil || !mh.Drift.Checked || !mh.Drift.Drifted {
		t.Fatalf("drift report = %+v", mh.Drift)
	}
	ev := h.sink.all()
	if len(ev) != 1 || ev[0].event != "drift" {
		t.Fatalf("events = %+v", ev)
	}
	if ev[0].fields["degradation"] < 0.25 {
		t.Fatalf("event degradation = %g", ev[0].fields["degradation"])
	}
}

func TestMonitorRecoverRebuildsState(t *testing.T) {
	h := newHarness(t, Config{ReferenceWindows: 3, LiveWindows: 3})
	for i := 0; i < 4; i++ {
		h.ingest(t, h.window(i, 200, 20, 150))
	}
	for i := 4; i < 7; i++ {
		h.ingest(t, h.window(i, 320, 20, 150))
	}

	// A fresh monitor over the same registry — as after a galleryd
	// restart — recovers windows from the DAL and reaches the same
	// verdict.
	sink := &captureEvents{}
	m2 := New(h.g, Config{
		ReferenceWindows: 3, LiveWindows: 3, Interval: -1,
		Obs: obs.NewRegistry(), Events: sink.publish,
	})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	m2.Evaluate(context.Background())
	mh, ok := m2.ModelHealth(h.model.ID.String())
	if !ok {
		t.Fatal("recovered monitor lost the model")
	}
	if mh.Status != string(StatusDegraded) {
		t.Fatalf("recovered status = %s (%v) psi=%g", mh.Status, mh.Reasons, mh.PSI)
	}
	if mh.Windows != 7 || mh.Requests != 7*150 {
		t.Fatalf("recovered windows=%d requests=%d", mh.Windows, mh.Requests)
	}
	if len(sink.all()) != 1 {
		t.Fatalf("recovered monitor events = %+v", sink.all())
	}
}

func TestMonitorIngestRejectsMalformed(t *testing.T) {
	h := newHarness(t, Config{})
	bad1 := h.window(0, 200, 20, 10)
	bad1.ModelID = "not-a-uuid"
	bad2 := h.window(1, 200, 20, 10)
	bad2.Values.Count = 5
	bad2.Values.Counts = []int64{1} // malformed wire sketch
	good := h.window(2, 200, 20, 10)
	resp, err := h.mon.Ingest(context.Background(), api.HealthObservationsRequest{
		Observations: []api.HealthObservation{bad1, bad2, good},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Rejected != 2 {
		t.Fatalf("resp = %+v, want 1 accepted / 2 rejected", resp)
	}
	ws, err := h.g.HealthWindows(h.model.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 {
		t.Fatalf("persisted %d windows, want 1", len(ws))
	}
}

func TestMonitorKeepWindowsPrunes(t *testing.T) {
	h := newHarness(t, Config{})
	for i := 0; i < keepWindows+2; i++ {
		h.ingest(t, h.window(i, 200, 20, 20))
	}
	ws, err := h.g.HealthWindows(h.model.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != keepWindows {
		t.Fatalf("stored %d windows, want %d (keepWindows)", len(ws), keepWindows)
	}
}

func TestMonitorListSorted(t *testing.T) {
	h := newHarness(t, Config{ReferenceWindows: 1, LiveWindows: 1})
	h.ingest(t, h.window(0, 200, 20, 60))
	m2, err := h.g.RegisterModel(core.ModelSpec{
		BaseVersionID: "bv-eta", Project: "forecasting", Name: "eta",
	})
	if err != nil {
		t.Fatal(err)
	}
	w := h.window(1, 50, 5, 60)
	w.ModelID = m2.ID.String()
	w.InstanceID = ""
	h.ingest(t, w)
	h.mon.Evaluate(context.Background())
	list := h.mon.List()
	if len(list) != 2 {
		t.Fatalf("list = %+v", list)
	}
	if list[0].ModelID >= list[1].ModelID {
		t.Fatal("list not sorted by model id")
	}
	if _, ok := h.mon.ModelHealth(uuid.NewSeeded(42).New().String()); ok {
		t.Fatal("unknown model reported healthy")
	}
}

func TestMonitorStartStop(t *testing.T) {
	h := newHarness(t, Config{ReferenceWindows: 1, LiveWindows: 1})
	h.mon.cfg.Interval = time.Millisecond
	h.ingest(t, h.window(0, 200, 20, 400), h.window(1, 200, 20, 400))
	h.mon.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if mh, ok := h.mon.ModelHealth(h.model.ID.String()); ok && mh.Status == string(StatusHealthy) {
			break
		}
		if time.Now().After(deadline) {
			mh, ok := h.mon.ModelHealth(h.model.ID.String())
			t.Fatalf("ticker never reached healthy: ok=%v mh=%+v", ok, mh)
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.mon.Stop()
	h.mon.Stop() // idempotent
}
