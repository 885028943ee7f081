package main

import (
	"fmt"
	"time"
)

// calibrate times a fixed spin while the machine is otherwise idle. The
// program under test cannot move it, so when it moves, the host did.
func calibrate() time.Duration {
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best && x != 0 {
			best = d
		}
	}
	return best
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// repeat decides whether a repeated step (set-up, crash and restart) runs
// again: always atLeast times, then for as long as the repetitions together
// have taken under budget. A step that takes tens of milliseconds gets a
// steady median, and a region long enough for the host-speed probe, for
// four seconds; one that takes seconds is not multiplied.
func repeat(done, atLeast int, began time.Time, budget time.Duration) bool {
	return done < atLeast || time.Since(began) < budget
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runWorkload is one run of one workload: inputs from the seed, set-up
// (several times, the last one kept), the timed region, the crash check,
// and every number read off afterwards.
func runWorkload(env *env, w workload, cfg *config) (result, error) {
	res := result{Workload: w.name(), Seed: cfg.seed, Seconds: cfg.duration.Seconds(), Trace: cfg.trace}
	var m metrics
	if err := w.generate(cfg); err != nil {
		return res, fmt.Errorf("generate inputs: %w", err)
	}
	m.set("host.calib_ms", millis(calibrate()), "ms")

	// Set-up: daemon boot + seeding + warm-up, up to the first timed
	// operation. Repeated on fresh stacks; the median is reported and the
	// last stack is the one measured.
	fsync, gwArgs := w.stackOpts()
	var st *stack
	var setups []float64
	setupProbe := startProbe()
	for began := time.Now(); repeat(len(setups), cfg.setups, began, cfg.repeatBudget); {
		if st != nil {
			st.stop()
		}
		t0 := time.Now()
		var err error
		if st, err = env.bootStack(w.name(), fsync, gwArgs); err != nil {
			return res, err
		}
		if err := w.setUp(st, cfg); err != nil {
			st.stop()
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.stop()
	setupUS := setupProbe.finish()

	before, err := st.snap()
	if err != nil {
		return res, err
	}
	probe := startProbe()
	load := w.run(st, cfg)
	probeUS := probe.finish()
	after, err := st.snap()
	if err != nil {
		return res, err
	}
	stored, sent := st.storedBytes(), w.userBytes()

	res.Attempted, res.Failed = load.attempted, load.failed
	if load.firstErr != nil {
		res.Error = load.firstErr.Error()
	}
	ok := float64(len(load.samples))
	if ok == 0 {
		return res, fmt.Errorf("no operation succeeded: %v", load.firstErr)
	}

	rates := sliceRates(load.samples, load.elapsed)
	lat := latenciesMS(load.samples)
	gdCPU, gsCPU := after.gdCPU-before.gdCPU, after.gsCPU-before.gsCPU
	opsPerS := median(rates)
	if load.fixedCount {
		opsPerS = ok / load.elapsed.Seconds()
	}

	// Per-layer rows that come from outside the processes.
	m.set("client.samples", ok, "count")
	m.set("client.slice_iqr_pct", iqrPct(rates), "%")
	m.set("client.p99_ms", tail(lat, 0.99), "ms")
	m.set("client.p999_ms", tail(lat, 0.999), "ms")
	m.set("client.cpu_us_per_op", micros(after.selfCPU-before.selfCPU)/ok, "us/op")
	m.set("client.fail_ratio", ratio(float64(load.failed), float64(load.attempted)), "ratio")
	m.set("galleryd.cpu_us_per_op", micros(gdCPU)/ok, "us/op")
	m.set("galleryserve.cpu_us_per_op", micros(gsCPU)/ok, "us/op")
	m.set("galleryd.rss_mb", float64(after.gdHWM)/1024, "MB")
	m.set("galleryserve.rss_mb", float64(after.gsHWM)/1024, "MB")
	m.set("galleryd.ctxsw_per_op", float64(after.gdCtxsw-before.gdCtxsw)/ok, "1/op")
	if dt := float64(after.host.total - before.host.total); dt > 0 {
		m.set("host.steal_pct", 100*float64(after.host.steal-before.host.steal)/dt, "%")
		m.set("host.iowait_pct", 100*float64(after.host.iowait-before.host.iowait)/dt, "%")
	}
	if err := daemonRows(&m, st); err != nil {
		return res, err
	}
	// Rows only one workload measures read 0 on the others, so that every
	// run reports every name.
	for _, n := range []string{"upload", "insert_metrics", "promote", "search", "search_metric", "get_instance", "fetch_blob", "lineage", "timeline"} {
		m.set("client."+n+"_p50_ms", 0, "ms")
	}
	m.set("serve.swap_lag_p50_ms", 0, "ms")
	w.report(&m)

	// Durability: SIGKILL galleryd after the last ack, restart it on the
	// same data dir, and read back everything acknowledged.
	crashProbe := startProbe()
	var recovers []float64
	for began := time.Now(); repeat(len(recovers), cfg.crashes, began, cfg.repeatBudget); {
		d, err := st.crashGalleryd()
		if err != nil {
			return res, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recovers = append(recovers, d.Seconds())
	}
	crashUS := crashProbe.finish()
	checked, wrong := w.verify(st)
	res.Attempted += int64(checked)
	res.Failed += int64(wrong)
	if wrong > 0 && res.Error == "" {
		res.Error = fmt.Sprintf("%d of %d acknowledged writes unreadable or changed after SIGKILL and restart", wrong, checked)
	}

	// End-to-end. Every time is scaled to the reference host speed by the
	// probe that ran beside it (see probe.go); a region too short for a
	// reading of its own borrows the timed region's. The readings as taken
	// are kept as raw.*.
	if probeUS == 0 {
		return res, fmt.Errorf("timed region of %v is too short for the host-speed probe", load.elapsed)
	}
	if setupUS == 0 {
		setupUS = probeUS
	}
	if crashUS == 0 {
		crashUS = probeUS
	}
	m.set("host.speed", probeRefUS/probeUS, "ratio")
	m.set("host.speed_setup", probeRefUS/setupUS, "ratio")
	m.set("host.speed_recover", probeRefUS/crashUS, "ratio")
	for _, e := range []struct {
		name, unit string
		raw, speed float64
	}{
		{"p50_ms", "ms", quantile(lat, 0.5), probeRefUS / probeUS},
		{"cpu_us_per_op", "us/op", micros(gdCPU+gsCPU) / ok, probeRefUS / probeUS},
		{"setup_s", "s", median(setups), probeRefUS / setupUS},
		{"recover_s", "s", median(recovers), probeRefUS / crashUS},
	} {
		m.set("raw."+e.name, e.raw, e.unit)
		m.set(e.name, e.raw*e.speed, e.unit)
	}
	m.set("raw.ops_per_s", opsPerS, "ops/s")
	m.set("ops_per_s", opsPerS*probeUS/probeRefUS, "ops/s")
	m.set("stored_bytes_per_user_byte", ratio(float64(stored), float64(sent)), "ratio")
	res.Correct = res.Failed == 0

	if cfg.trace {
		if err := ladder(env, cfg, &m, w.ladderOp()); err != nil {
			return res, fmt.Errorf("traced run: %w", err)
		}
	}
	res.Metrics = m.byN
	return res, nil
}

// daemonRows reads what the daemons already count about themselves:
// galleryd's /v1/stats and both /v1/debug/metrics.
func daemonRows(m *metrics, st *stack) error {
	gs, err := debugCounters(st.gateway())
	if err != nil {
		return fmt.Errorf("gateway debug metrics: %w", err)
	}
	preds, loads := float64(gs["serve_predictions_total"]), float64(gs["serve_model_loads_total"])
	m.set("serve.hit_ratio", ratio(preds-loads, preds), "ratio")
	m.set("serve.loads_per_kop", ratio(1000*loads, preds), "1/kop")
	m.set("serve.evictions", float64(gs["serve_evictions_total"]), "count")
	m.set("serve.swaps", float64(gs["serve_hot_swaps_total"]), "count")
	m.set("serve.stale_predictions", float64(gs["serve_stale_predictions_total"]), "count")

	stats, err := st.registry().Stats()
	if err != nil {
		return fmt.Errorf("registry stats: %w", err)
	}
	m.set("dal.cache_hit_ratio", stats.CacheHitRatio, "ratio")
	m.set("rules.engine_drops", float64(stats.EngineDrops), "count")
	return nil
}
