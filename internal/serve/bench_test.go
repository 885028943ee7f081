package serve

import (
	"context"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/forecast"
	"gallery/internal/obs"
)

// benchGateway serves one trained LinearAR with a month-long history
// window, the shape of the predict_hot workload.
func benchGateway(tb testing.TB, health bool) (*Gateway, string, forecast.Context) {
	tb.Helper()
	series := forecast.Generate(forecast.CityConfig{
		Name: "sf", Base: 100, GrowthPerWeek: 3, DailyAmp: 20, WeeklyAmp: 10, NoiseStd: 2, Seed: 7,
	}, time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC), time.Hour, 24*56)
	m := &forecast.LinearAR{Lags: 48}
	if err := m.Train(series); err != nil {
		tb.Fatal(err)
	}
	src := newFakeSource()
	src.promote(tb, "m1", 0, m)
	opts := Options{RefreshInterval: -1, Obs: obs.NewRegistry()}
	if health {
		// Discard the windows: recording on, no network measured.
		opts.HealthSink = func(api.HealthObservationsRequest) {}
		opts.HealthInterval = -1 // record on the hot path, no flush loop
	}
	g := New(src, opts)
	tb.Cleanup(g.Close)
	fctx := forecast.Context{
		History: series.Values()[len(series)-24*28:],
		Time:    series[len(series)-1].T.Add(time.Hour),
	}
	if _, err := g.PredictCtx(context.Background(), "m1", fctx); err != nil {
		tb.Fatal(err)
	}
	return g, "m1", fctx
}

func benchPredict(b *testing.B, health bool) {
	g, id, fctx := benchGateway(b, health)
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := g.PredictCtx(context.Background(), id, fctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServingGateway is the predict path under concurrent load (run
// with -cpu to vary client parallelism), with health recording off and
// on: recording must cost a few atomics, not allocations.
func BenchmarkServingGateway(b *testing.B) {
	b.Run("plain", func(b *testing.B) { benchPredict(b, false) })
	b.Run("health", func(b *testing.B) { benchPredict(b, true) })
}

// TestPredictAllocsWithHealthRecording pins the acceptance bound: a
// prediction from a 48-lag LinearAR over a 672-point history allocates
// nothing with health recording off, and recording on adds at most two
// allocations per op.
func TestPredictAllocsWithHealthRecording(t *testing.T) {
	measure := func(health bool) float64 {
		g, id, fctx := benchGateway(t, health)
		return testing.AllocsPerRun(200, func() {
			if _, err := g.PredictCtx(context.Background(), id, fctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := measure(false)
	on := measure(true)
	if off != 0 {
		t.Fatalf("predict makes %.1f allocs/op, want 0", off)
	}
	if on-off > 2 {
		t.Fatalf("health recording adds %.1f allocs/op (off=%.1f on=%.1f), want ≤2", on-off, off, on)
	}
}
