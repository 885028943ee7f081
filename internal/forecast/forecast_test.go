package forecast

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var start = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

func sampleCity(seed int64) CityConfig {
	return CityConfig{
		Name: "testville", Base: 500, GrowthPerWeek: 10,
		DailyAmp: 120, WeeklyAmp: 40, NoiseStd: 15, Seed: seed,
	}
}

func TestEvaluateKnownValues(t *testing.T) {
	pred := []float64{110, 90, 100}
	actual := []float64{100, 100, 100}
	m, err := Evaluate(pred, actual)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MAPE-20.0/3) > 1e-9 {
		t.Fatalf("MAPE = %v", m.MAPE)
	}
	if math.Abs(m.MAE-20.0/3) > 1e-9 {
		t.Fatalf("MAE = %v", m.MAE)
	}
	if math.Abs(m.Bias-0) > 1e-9 {
		t.Fatalf("Bias = %v", m.Bias)
	}
	if m.N != 3 {
		t.Fatalf("N = %d", m.N)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Evaluate(nil, nil); err == nil {
		t.Fatal("empty evaluation accepted")
	}
}

func TestEvaluatePerfectPrediction(t *testing.T) {
	actual := []float64{5, 7, 9, 11}
	m, err := Evaluate(actual, actual)
	if err != nil {
		t.Fatal(err)
	}
	if m.MAPE != 0 || m.MAE != 0 || m.RMSE != 0 || m.R2 != 1 {
		t.Fatalf("perfect prediction metrics = %+v", m)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := sampleCity(42)
	a := Generate(cfg, start, time.Hour, 500)
	b := Generate(cfg, start, time.Hour, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	cfg2 := sampleCity(43)
	c := Generate(cfg2, start, time.Hour, 500)
	same := true
	for i := range a {
		if a[i].V != c[i].V {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical series")
	}
}

func TestGenerateNonNegativeAndSeasonal(t *testing.T) {
	s := Generate(sampleCity(1), start, time.Hour, 24*28)
	for _, p := range s {
		if p.V < 0 {
			t.Fatalf("negative demand %v at %v", p.V, p.T)
		}
	}
}

func TestGenerateEvents(t *testing.T) {
	cfg := sampleCity(2)
	cfg.Events = []Event{{
		Start: start.Add(48 * time.Hour), End: start.Add(72 * time.Hour), Multiplier: 2.0,
	}}
	s := Generate(cfg, start, time.Hour, 24*5)
	inEvent := 0
	for _, p := range s {
		if p.Event {
			inEvent++
			if p.T.Before(cfg.Events[0].Start) || !p.T.Before(cfg.Events[0].End) {
				t.Fatal("event flag outside window")
			}
		}
	}
	if inEvent != 24 {
		t.Fatalf("%d event points, want 24", inEvent)
	}
}

func TestGenerateRegimeShift(t *testing.T) {
	cfg := sampleCity(3)
	cfg.NoiseStd = 0
	cfg.DailyAmp, cfg.WeeklyAmp, cfg.GrowthPerWeek = 0, 0, 0
	cfg.ShiftAt = start.Add(100 * time.Hour)
	cfg.ShiftFactor = 2.0
	s := Generate(cfg, start, time.Hour, 200)
	if s[50].V != 500 || s[150].V != 1000 {
		t.Fatalf("shift: v[50]=%v v[150]=%v", s[50].V, s[150].V)
	}
}

func TestHeuristicMean(t *testing.T) {
	h := &Heuristic{K: 3}
	if err := h.Train(nil); err != nil {
		t.Fatal(err)
	}
	got := h.Forecast(Context{History: []float64{1, 2, 3, 4, 5, 6}})
	if got != 5 {
		t.Fatalf("mean of last 3 = %v, want 5", got)
	}
	// Shorter history than K.
	if got := h.Forecast(Context{History: []float64{10}}); got != 10 {
		t.Fatalf("short history = %v", got)
	}
	if got := h.Forecast(Context{}); got != 0 {
		t.Fatalf("empty history = %v", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := &EWMA{Alpha: 0.5}
	hist := make([]float64, 50)
	for i := range hist {
		hist[i] = 42
	}
	if got := e.Forecast(Context{History: hist}); math.Abs(got-42) > 1e-9 {
		t.Fatalf("EWMA on constant series = %v", got)
	}
}

func TestSeasonalNaive(t *testing.T) {
	s := &SeasonalNaive{Period: 24}
	if err := s.Train(nil); err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 48)
	for i := range hist {
		hist[i] = float64(i)
	}
	if got := s.Forecast(Context{History: hist}); got != 24 {
		t.Fatalf("seasonal naive = %v, want 24", got)
	}
	bad := &SeasonalNaive{}
	if err := bad.Train(nil); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestLinearARLearnsSeasonalSeries(t *testing.T) {
	cfg := sampleCity(7)
	data := Generate(cfg, start, time.Hour, 24*60)
	trainN := 24 * 45

	ar := &LinearAR{Lags: 24}
	arMetrics, err := Backtest(ar, data, trainN)
	if err != nil {
		t.Fatal(err)
	}
	naive := &Heuristic{K: 1} // random walk baseline
	naiveMetrics, err := Backtest(naive, data, trainN)
	if err != nil {
		t.Fatal(err)
	}
	if arMetrics.MAPE >= naiveMetrics.MAPE {
		t.Fatalf("AR MAPE %.2f not better than naive %.2f", arMetrics.MAPE, naiveMetrics.MAPE)
	}
	if arMetrics.R2 < 0.8 {
		t.Fatalf("AR R2 = %.3f on a strongly seasonal series", arMetrics.R2)
	}
}

func TestLinearARNeedsData(t *testing.T) {
	ar := &LinearAR{Lags: 24}
	short := Generate(sampleCity(8), start, time.Hour, 20)
	if err := ar.Train(short); err == nil {
		t.Fatal("training on 20 points with 24 lags succeeded")
	}
}

func TestLinearARUntrainedFallback(t *testing.T) {
	ar := &LinearAR{Lags: 4}
	if got := ar.Forecast(Context{History: []float64{1, 2, 3, 9}}); got != 9 {
		t.Fatalf("untrained fallback = %v, want last value", got)
	}
	if got := ar.Forecast(Context{}); got != 0 {
		t.Fatalf("untrained empty = %v", got)
	}
}

func TestEventFeatureImprovesEventAccuracy(t *testing.T) {
	cfg := sampleCity(9)
	// Weekly recurring events in train and test.
	for w := 0; w < 10; w++ {
		ev := start.Add(time.Duration(w)*7*24*time.Hour + 5*24*time.Hour)
		cfg.Events = append(cfg.Events, Event{Start: ev, End: ev.Add(24 * time.Hour), Multiplier: 1.8})
	}
	data := Generate(cfg, start, time.Hour, 24*70)
	trainN := 24 * 49

	plain := &LinearAR{Lags: 24}
	aware := &LinearAR{Lags: 24, UseEventFeature: true}
	pm, err := Backtest(plain, data, trainN)
	if err != nil {
		t.Fatal(err)
	}
	am, err := Backtest(aware, data, trainN)
	if err != nil {
		t.Fatal(err)
	}
	if am.MAPE >= pm.MAPE {
		t.Fatalf("event-aware MAPE %.2f not better than plain %.2f on eventful series", am.MAPE, pm.MAPE)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data := Generate(sampleCity(10), start, time.Hour, 24*40)
	models := []Model{
		&Heuristic{K: 5},
		&EWMA{Alpha: 0.4},
		&SeasonalNaive{Period: 24},
		&LinearAR{Lags: 12},
	}
	ctx := Context{History: data.Values()[:24*39], Time: data[24*39].T}
	for _, m := range models {
		if err := m.Train(data[:24*39]); err != nil {
			t.Fatalf("train %s: %v", m.Name(), err)
		}
		want := m.Forecast(ctx)
		blob, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %s: %v", m.Name(), err)
		}
		back, err := Decode(blob)
		if err != nil {
			t.Fatalf("decode %s: %v", m.Name(), err)
		}
		if back.Name() != m.Name() {
			t.Fatalf("decoded name %s != %s", back.Name(), m.Name())
		}
		got := back.Forecast(ctx)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: decoded forecast %v != %v", m.Name(), got, want)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a model")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestBacktestValidation(t *testing.T) {
	data := Generate(sampleCity(11), start, time.Hour, 100)
	if _, err := Backtest(&Heuristic{K: 5}, data, 0); err == nil {
		t.Fatal("trainN=0 accepted")
	}
	if _, err := Backtest(&Heuristic{K: 5}, data, 100); err == nil {
		t.Fatal("trainN=len accepted")
	}
}

func TestRollingMAPEWindow(t *testing.T) {
	data := Generate(sampleCity(12), start, time.Hour, 200)
	m := &Heuristic{K: 5}
	if err := m.Train(nil); err != nil {
		t.Fatal(err)
	}
	v, err := RollingMAPE(m, data, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("MAPE = %v", v)
	}
	if _, err := RollingMAPE(m, data, 150, 100); err == nil {
		t.Fatal("inverted window accepted")
	}
}

func TestDefaultCities(t *testing.T) {
	cities := DefaultCities(15, 1)
	if len(cities) != 15 {
		t.Fatalf("got %d cities", len(cities))
	}
	seen := map[string]bool{}
	for _, c := range cities {
		if c.Base <= 0 || c.NoiseStd <= 0 {
			t.Fatalf("degenerate city %+v", c)
		}
		seen[c.Name] = true
	}
	if len(seen) != 15 {
		t.Fatalf("city names not unique: %d distinct", len(seen))
	}
}

// Property: solveLeastSquares recovers coefficients of an exactly linear
// system.
func TestQuickLeastSquaresRecovery(t *testing.T) {
	f := func(a, b int8) bool {
		slope := float64(a) / 16
		intercept := float64(b) / 16
		var X [][]float64
		var y []float64
		for x := 0.0; x < 20; x++ {
			X = append(X, []float64{1, x})
			y = append(y, intercept+slope*x)
		}
		theta, err := solveLeastSquares(X, y, 0)
		if err != nil {
			return false
		}
		return math.Abs(theta[0]-intercept) < 1e-6 && math.Abs(theta[1]-slope) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Evaluate of a prediction equal to actual scaled by (1+e) has
// MAPE 100|e| for positive actuals.
func TestQuickMAPEScaling(t *testing.T) {
	f := func(e int8) bool {
		scale := 1 + float64(e)/200 // within (0.36, 1.64)
		actual := []float64{10, 20, 30, 40}
		pred := make([]float64, len(actual))
		for i, a := range actual {
			pred[i] = a * scale
		}
		m, err := Evaluate(pred, actual)
		if err != nil {
			return false
		}
		return math.Abs(m.MAPE-100*math.Abs(scale-1)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestForecastMatchesTrainingRow checks the row-free Forecast of each
// feature learner against the row its Train fits on: the prediction for
// the step Horizon past the end of History must equal, bit for bit, the
// model applied to the training row built over History padded out to that
// step. A feature Forecast reads from the wrong place is training/serving
// skew, and it fails here.
func TestForecastMatchesTrainingRow(t *testing.T) {
	cfg := sampleCity(41)
	for w := 0; w < 6; w++ {
		ev := start.Add(time.Duration(w)*7*24*time.Hour + 3*24*time.Hour)
		cfg.Events = append(cfg.Events, Event{Start: ev, End: ev.Add(30 * time.Hour), Multiplier: 1.6})
	}
	data := Generate(cfg, start, time.Hour, 24*42)
	values := data.Values()
	trainN, window := 24*35, 24*7
	for _, m := range []Model{
		&LinearAR{Lags: 6},
		&LinearAR{Lags: 48, UseEventFeature: true},
		&LinearAR{Lags: 12, Horizon: 3, UseEventFeature: true},
		&GBStumps{Lags: 24, Rounds: 40},
		&GBStumps{Lags: 8, Horizon: 4, Rounds: 40},
	} {
		if err := m.Train(data[:trainN]); err != nil {
			t.Fatalf("train %s: %v", m.Name(), err)
		}
		for end := trainN; end < len(data); end += 5 {
			evs := make([]bool, window)
			for i := range evs {
				evs[i] = data[end-window+i].Event
			}
			ctx := Context{History: values[end-window : end], HistoryEvents: evs, Time: data[end].T, Event: data[end].Event}
			if got, want := m.Forecast(ctx), forecastFromRow(m, ctx); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s at %v: Forecast %v, training row gives %v", m.Name(), ctx.Time, got, want)
			}
		}
	}
}

// forecastFromRow applies a fitted LinearAR or GBStumps to the training
// feature row over ctx.History padded with Horizon zeros.
func forecastFromRow(m Model, ctx Context) float64 {
	n := len(ctx.History)
	var v float64
	switch m := m.(type) {
	case *LinearAR:
		values := append(append([]float64(nil), ctx.History...), make([]float64, m.horizon())...)
		for j, x := range m.features(values, ctx.Time, ctx.Event, ctx.eventAt(n-1), len(values)-1) {
			v += m.Theta[j] * x
		}
	case *GBStumps:
		values := append(append([]float64(nil), ctx.History...), make([]float64, m.horizon())...)
		row := m.featureRow(values, ctx.Time, len(values)-1)
		v = m.Base
		for _, s := range m.Stumps {
			v += m.rate() * s.apply(row)
		}
	}
	if v < 0 {
		v = 0
	}
	return v
}

// TestForecastAllocatesNothing pins the serving cost of every learner the
// gateway can load: one prediction over a month of hourly history makes no
// heap allocation.
func TestForecastAllocatesNothing(t *testing.T) {
	data := Generate(sampleCity(42), start, time.Hour, 24*56)
	ctx := Context{History: data.Values()[len(data)-24*28:], Time: data[len(data)-1].T.Add(time.Hour), Event: true}
	for _, m := range []Model{
		&Heuristic{K: 5}, &EWMA{Alpha: 0.3}, &SeasonalNaive{Period: 24},
		&LinearAR{Lags: 48, UseEventFeature: true}, &GBStumps{Lags: 24, Rounds: 40},
	} {
		if err := m.Train(data); err != nil {
			t.Fatalf("train %s: %v", m.Name(), err)
		}
		if allocs := testing.AllocsPerRun(100, func() { m.Forecast(ctx) }); allocs != 0 {
			t.Errorf("%s: %.1f allocs per Forecast, want 0", m.Name(), allocs)
		}
	}
}
