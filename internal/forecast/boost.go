package forecast

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// GBStumps is a gradient-boosted ensemble of depth-1 regression trees over
// lag and calendar features. It represents the paper's "advanced" model
// class (§4.2: model classes "ranging from simple time series models,
// linear regression models, and now deep learning models"): unlike
// LinearAR's smooth harmonics it captures sharp, threshold-shaped demand
// structure such as commute rush hours.
type GBStumps struct {
	Lags         int
	Rounds       int
	LearningRate float64
	// Horizon, as in LinearAR, is how many steps ahead the model
	// predicts (default 1).
	Horizon int

	// Learned state (exported to survive gob through Gallery).
	Base   float64
	Stumps []Stump
}

// Stump is one depth-1 tree: feature <= Threshold ? Left : Right.
type Stump struct {
	Feature   int
	Threshold float64
	Left      float64
	Right     float64
}

// Name implements Model.
func (m *GBStumps) Name() string {
	return fmt.Sprintf("gb_stumps_l%d_r%d", m.lags(), m.rounds())
}

func (m *GBStumps) lags() int {
	if m.Lags <= 0 {
		return 12
	}
	return m.Lags
}

func (m *GBStumps) rounds() int {
	if m.Rounds <= 0 {
		return 120
	}
	return m.Rounds
}

func (m *GBStumps) rate() float64 {
	if m.LearningRate <= 0 {
		return 0.15
	}
	return m.LearningRate
}

func (m *GBStumps) horizon() int {
	if m.Horizon <= 0 {
		return 1
	}
	return m.Horizon
}

func (m *GBStumps) span() int { return m.horizon() + m.lags() - 1 }

// featureRow builds [lags..., hour, weekday] for predicting index i.
// Forecast reads the same layout in place.
func (m *GBStumps) featureRow(values []float64, t time.Time, i int) []float64 {
	h := m.horizon()
	row := make([]float64, 0, m.lags()+2)
	for l := 0; l < m.lags(); l++ {
		row = append(row, values[i-h-l])
	}
	row = append(row, float64(t.Hour()), float64(t.Weekday()))
	return row
}

// Train fits the ensemble by greedy least-squares boosting.
func (m *GBStumps) Train(data Series) error {
	values := data.Values()
	n := len(values)
	if n <= m.span()+8 {
		return fmt.Errorf("%w: %d points for %s", ErrNeedData, n, m.Name())
	}
	var X [][]float64
	var y []float64
	for i := m.span(); i < n; i++ {
		X = append(X, m.featureRow(values, data[i].T, i))
		y = append(y, values[i])
	}
	rows, p := len(X), len(X[0])

	// Base prediction: mean.
	var sum float64
	for _, v := range y {
		sum += v
	}
	m.Base = sum / float64(rows)

	resid := make([]float64, rows)
	for i := range resid {
		resid[i] = y[i] - m.Base
	}

	// Candidate thresholds per feature: quantiles of the training values.
	const quantiles = 16
	thresholds := make([][]float64, p)
	col := make([]float64, rows)
	for f := 0; f < p; f++ {
		for i := range X {
			col[i] = X[i][f]
		}
		sorted := append([]float64(nil), col...)
		sort.Float64s(sorted)
		var ts []float64
		for q := 1; q < quantiles; q++ {
			ts = append(ts, sorted[q*rows/quantiles])
		}
		thresholds[f] = dedupFloats(ts)
	}

	m.Stumps = m.Stumps[:0]
	lr := m.rate()
	for round := 0; round < m.rounds(); round++ {
		best, ok := bestStump(X, resid, thresholds)
		if !ok {
			break
		}
		m.Stumps = append(m.Stumps, best)
		for i := range X {
			resid[i] -= lr * best.apply(X[i])
		}
	}
	return nil
}

func (s Stump) apply(row []float64) float64 { return s.split(row[s.Feature]) }

// split is the stump's answer for feature value x.
func (s Stump) split(x float64) float64 {
	if x <= s.Threshold {
		return s.Left
	}
	return s.Right
}

// bestStump finds the single split minimizing squared residual error.
func bestStump(X [][]float64, resid []float64, thresholds [][]float64) (Stump, bool) {
	rows := len(X)
	var total float64
	for _, r := range resid {
		total += r
	}
	bestGain := 1e-12
	var best Stump
	found := false
	for f := range thresholds {
		for _, th := range thresholds[f] {
			var leftSum float64
			leftN := 0
			for i := 0; i < rows; i++ {
				if X[i][f] <= th {
					leftSum += resid[i]
					leftN++
				}
			}
			rightN := rows - leftN
			if leftN == 0 || rightN == 0 {
				continue
			}
			rightSum := total - leftSum
			// SSE reduction of predicting each side's mean residual.
			gain := leftSum*leftSum/float64(leftN) + rightSum*rightSum/float64(rightN)
			if gain > bestGain {
				bestGain = gain
				best = Stump{
					Feature:   f,
					Threshold: th,
					Left:      leftSum / float64(leftN),
					Right:     rightSum / float64(rightN),
				}
				found = true
			}
		}
	}
	return best, found
}

// Forecast applies the ensemble; the target sits Horizon steps past the
// end of History, so lag feature l of its row is History[n-1-l]. Each
// stump reads its one feature straight from the context, so no row is
// built and the call allocates nothing.
func (m *GBStumps) Forecast(ctx Context) float64 {
	n := len(ctx.History)
	if len(m.Stumps) == 0 && m.Base == 0 || n < m.span() {
		if n == 0 {
			return 0
		}
		return ctx.History[n-1]
	}
	lags := m.lags()
	hour, dow := float64(ctx.Time.Hour()), float64(ctx.Time.Weekday())
	pred := m.Base
	lr := m.rate()
	for _, s := range m.Stumps {
		x := dow // featureRow's layout: lags..., hour, weekday
		switch {
		case s.Feature < lags:
			x = ctx.History[n-1-s.Feature]
		case s.Feature == lags:
			x = hour
		}
		pred += lr * s.split(x)
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

func dedupFloats(ts []float64) []float64 {
	sort.Float64s(ts)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || math.Abs(t-out[len(out)-1]) > 1e-12 {
			out = append(out, t)
		}
	}
	return out
}
