package rules

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/uuid"
)

func TestStartIdempotentAndStopWithoutStart(t *testing.T) {
	h := newHarness(t)
	h.eng.Stop() // no-op before Start
	h.eng.Start(2)
	h.eng.Start(2) // second Start must not spawn a second pool or panic
	h.eng.Stop()
	h.eng.Stop() // double Stop is safe
}

// TestQueueNeverBlocks parks every worker in a blocking action and fills
// the queue behind them. A trigger must then come back at once, dropped
// and counted in telemetry_dropped_total{channel="rules"}, and so must a
// trigger after Stop; nothing dropped runs.
func TestQueueNeverBlocks(t *testing.T) {
	h := newHarness(t)
	reg := obs.NewRegistry()
	h.eng.Instrument(reg)
	dropped := func() int64 { return reg.Snapshot().Counters[`telemetry_dropped_total{channel="rules"}`] }
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "bias", core.ScopeValidation, 0); err != nil {
		t.Fatal(err)
	}
	const workers = 2
	var runs atomic.Int64
	parked, release := make(chan struct{}, workers), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	h.eng.RegisterAction("block", func(*ActionContext) error {
		if runs.Add(1) <= workers {
			parked <- struct{}{}
		}
		<-release
		return nil
	})
	h.commit(t,
		&Rule{UUID: "q-metrics", Team: "t", Kind: KindAction, When: `metrics.bias >= 0`, Actions: []ActionRef{{Action: "block"}}},
		&Rule{UUID: "q-health", Team: "t", Kind: KindAction, When: `health.event == "drift"`, Actions: []ActionRef{{Action: "block"}}},
	)
	h.eng.Start(workers)
	defer h.eng.Stop()
	defer unblock()

	ctx := context.Background()
	for i := 0; i < workers; i++ {
		h.eng.MetricUpdatedCtx(ctx, in.ID)
	}
	for i := 0; i < workers; i++ {
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never reached the blocking action")
		}
	}
	// The triggers queued behind them evaluate false: they fill the queue
	// without firing, which keeps the test fast under -race.
	h.clk.Advance(time.Minute)
	if _, err := h.g.InsertMetric(ctx, in.ID, "bias", core.ScopeValidation, -1); err != nil {
		t.Fatal(err)
	}
	queue := cap(h.eng.jobs)
	for i := 0; i < queue; i++ {
		h.eng.MetricUpdatedCtx(ctx, in.ID)
	}
	if got := dropped(); got != 0 {
		t.Fatalf("dropped %d while filling the queue, want 0", got)
	}

	within := func(name string, trigger func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { trigger(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("%s blocked for 1s on a full queue", name)
		}
	}
	within("MetricUpdatedCtx", func() { h.eng.MetricUpdatedCtx(ctx, in.ID) })
	within("Event", func() { h.eng.Event(ctx, healthEvent(in.ID, "drift", nil)) })
	if got := dropped(); got != 2 {
		t.Fatalf("dropped = %d on a full queue, want 2", got)
	}

	unblock()
	h.eng.Stop()
	within("MetricUpdatedCtx after Stop", func() { h.eng.MetricUpdatedCtx(ctx, in.ID) })
	accepted := int64(workers + queue)
	st := h.eng.Stats()
	if st.EventsTriggered != accepted || st.Evaluations != accepted || runs.Load() != workers || st.ActionsRun != workers {
		t.Fatalf("stats %+v, %d actions; want %d accepted triggers evaluated once each, %d fired", st, runs.Load(), accepted, workers)
	}
	if st.EventsDropped != 3 || dropped() != 3 {
		t.Fatalf("dropped %d (stats %d), want 3: full queue twice, then after Stop", dropped(), st.EventsDropped)
	}
}

// TestQueueAccountsEveryTrigger races producers against Flush and Stop:
// every trigger is run once or dropped and counted, never both and never
// lost.
func TestQueueAccountsEveryTrigger(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "bias", core.ScopeValidation, 0); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	h.eng.RegisterAction("count", func(*ActionContext) error { runs.Add(1); return nil })
	h.commit(t, &Rule{UUID: "q-count", Team: "t", Kind: KindAction, When: `metrics.bias >= 0`, Actions: []ActionRef{{Action: "count"}}})
	h.eng.Start(3)

	const producers, each, stopAt = 4, 100, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.eng.MetricUpdatedCtx(context.Background(), in.ID)
				switch {
				case p == 0 && i == stopAt:
					h.eng.Stop()
				case i%25 == 0:
					h.eng.Flush()
				}
			}
		}()
	}
	wg.Wait()
	h.eng.Flush()
	st := h.eng.Stats()
	if st.EventsTriggered+st.EventsDropped != producers*each {
		t.Fatalf("accepted %d + dropped %d, want %d triggers", st.EventsTriggered, st.EventsDropped, producers*each)
	}
	if runs.Load() != st.EventsTriggered || st.ActionsRun != st.EventsTriggered {
		t.Fatalf("ran %d (stats %d), want every one of %d accepted triggers once", runs.Load(), st.ActionsRun, st.EventsTriggered)
	}
	if st.EventsDropped < each-stopAt-1 {
		t.Fatalf("dropped %d, want at least the %d triggers sent after Stop", st.EventsDropped, each-stopAt-1)
	}
}

func TestUnknownInstanceEventAlerts(t *testing.T) {
	h := newHarness(t)
	h.commit(t, listing2())
	h.eng.MetricUpdatedCtx(context.Background(), uuid.New()) // instance does not exist
	alerts := h.eng.Alerts()
	if len(alerts) != 1 || alerts[0].Action != "engine" {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestSelectionConsidersLatestProductionOverValidation(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "linear_regression", "UberX")
	in := h.upload(t, m, "sf")
	// Validation says mae 2; later production measurement says 9. The
	// engine's environment merges scopes with production winning, so the
	// candidate must fail the mae < 5 filter.
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mae", core.ScopeValidation, 2); err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(time.Minute)
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "mae", core.ScopeProduction, 9); err != nil {
		t.Fatal(err)
	}
	h.commit(t, listing1())
	if _, err := h.eng.SelectModel(listing1().UUID, core.InstanceFilter{}); err == nil {
		t.Fatal("stale validation metric won over fresh production metric")
	}
}

func TestSelectionSkipsDeprecatedCandidates(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "linear_regression", "UberX")
	old := h.upload(t, m, "sf")
	fresh := h.upload(t, m, "sf")
	for _, in := range []*core.Instance{old, fresh} {
		if _, err := h.g.InsertMetric(context.Background(), in.ID, "mae", core.ScopeValidation, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.g.DeprecateInstance(context.Background(), fresh.ID); err != nil {
		t.Fatal(err)
	}
	h.commit(t, listing1())
	got, err := h.eng.SelectModel(listing1().UUID, core.InstanceFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != old.ID {
		t.Fatal("deprecated instance selected as champion")
	}
}

func TestMultipleActionsPerRule(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	var order []string
	h.eng.RegisterAction("first", func(*ActionContext) error { order = append(order, "first"); return nil })
	h.eng.RegisterAction("second", func(*ActionContext) error { order = append(order, "second"); return nil })
	r := listing2()
	r.Actions = []ActionRef{{Action: "first"}, {Action: "second"}}
	h.commit(t, r)
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "bias", core.ScopeValidation, 0.0); err != nil {
		t.Fatal(err)
	}
	h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v", order)
	}
}

func TestActionParamsReachCallback(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	var got map[string]any
	h.eng.RegisterAction("configure", func(ctx *ActionContext) error {
		got = ctx.Params
		return nil
	})
	r := listing2()
	r.Actions = []ActionRef{{Action: "configure", Params: map[string]any{"endpoint": "http://serve/cfg", "timeout": 3.0}}}
	h.commit(t, r)
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "bias", core.ScopeValidation, 0.0); err != nil {
		t.Fatal(err)
	}
	h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	if got == nil || got["endpoint"] != "http://serve/cfg" || got["timeout"] != 3.0 {
		t.Fatalf("params = %v", got)
	}
}

func TestActionContextCarriesMetrics(t *testing.T) {
	h := newHarness(t)
	m := h.model(t, "Random Forest", "UberX")
	in := h.upload(t, m, "sf")
	var metrics map[string]float64
	h.eng.RegisterAction("forecasting_deployment", func(ctx *ActionContext) error {
		metrics = ctx.Metrics
		return nil
	})
	h.commit(t, listing2())
	if _, err := h.g.InsertMetric(context.Background(), in.ID, "bias", core.ScopeValidation, 0.04); err != nil {
		t.Fatal(err)
	}
	h.eng.MetricUpdatedCtx(context.Background(), in.ID)
	if metrics["bias"] != 0.04 {
		t.Fatalf("metrics = %v", metrics)
	}
}
