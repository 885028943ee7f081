package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gallery/internal/api"
	"gallery/internal/forecast"
)

// TestPredictRacesHotSwap hammers a model with predictions while the
// production pointer flips back and forth. No prediction may fail, and
// every response must be self-consistent: the value must match the
// learner of the version the response claims — a torn read (new version,
// old learner) fails the test. Run with -race.
//
// The subtest keeps the name it had when a batched arm ran beside it:
// batch=0 is the direct predict path, now the only one.
func TestPredictRacesHotSwap(t *testing.T) {
	t.Run("batch=0", testPredictRacesHotSwap)
}

func testPredictRacesHotSwap(t *testing.T) {
	src := newFakeSource()
	// Minor 0 (K=1) serves the last value, minor 1 (K=2) the mean of the
	// last two: history [10, 20] answers 20 or 15.
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	g := newTestGateway(t, src, Options{})

	hist := forecast.Context{History: []float64{10, 20}}
	want := map[string]float64{"1.0": 20, "1.1": 15}

	const workers = 8
	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		failed atomic.Int64
		torn   atomic.Int64
		total  atomic.Int64
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := g.PredictCtx(context.Background(), "m1", hist)
				total.Add(1)
				if err != nil {
					failed.Add(1)
					continue
				}
				if resp.Value != want[resp.Version] {
					torn.Add(1)
				}
			}
		}()
	}

	// Flip the production pointer 50 times under fire, letting a few
	// predictions land between consecutive swaps so every swap actually
	// races traffic.
	for swap := 1; swap <= 50; swap++ {
		k := swap%2 + 1 // alternates 2,1,2,1,...
		src.promote(t, "m1", swap%2, &forecast.Heuristic{K: k})
		g.RefreshAll()
		// Sleeping (not spinning) lets the workers run even on a
		// single-CPU machine.
		for before := total.Load(); total.Load() < before+4; {
			time.Sleep(100 * time.Microsecond)
		}
	}
	stop.Store(true)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d predictions failed during swaps", failed.Load(), total.Load())
	}
	if torn.Load() != 0 {
		t.Fatalf("%d of %d predictions saw torn version/learner state", torn.Load(), total.Load())
	}
	if total.Load() == 0 {
		t.Fatal("no predictions ran")
	}
}

// TestEvictionRacesPredictions evicts models out from under live traffic;
// a prediction on a model being evicted must still be answered, never
// dropped. Through the handler each request's history lives in a pooled
// buffer the next request overwrites, so anything still reading a request
// after its caller returned is a data race here and a wrong answer
// besides: every goroutine sends its own histories and checks the forecast
// of exactly those.
func TestEvictionRacesPredictions(t *testing.T) {
	const models, points = 4, 16
	learner := &forecast.Heuristic{K: points}
	for _, via := range []string{"gateway", "handler"} {
		t.Run(via, func(t *testing.T) {
			src := newFakeSource()
			for i := 0; i < models; i++ {
				src.promote(t, fmt.Sprintf("m%d", i), 0, learner)
			}
			// MaxModels=2 with 4 hot models forces constant eviction and reload.
			g := newTestGateway(t, src, Options{MaxModels: 2})
			h := NewHandler(g)
			predict := func(id string, hist []float64) (float64, error) {
				if via == "gateway" {
					resp, err := g.PredictCtx(context.Background(), id, forecast.Context{History: hist})
					return resp.Value, err
				}
				body, err := json.Marshal(api.PredictRequest{History: hist})
				if err != nil {
					return 0, err
				}
				status, raw := postPredict(h, id, body)
				if status != http.StatusOK {
					return 0, fmt.Errorf("status %d: %s", status, raw)
				}
				var resp api.PredictResponse
				err = json.Unmarshal(raw, &resp)
				return resp.Value, err
			}

			var (
				wg     sync.WaitGroup
				failed atomic.Int64
			)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					hist := make([]float64, points)
					for i := 0; i < 200; i++ {
						for j := range hist {
							hist[j] = float64(w*1_000_000 + i*1_000 + j*j)
						}
						want := learner.Forecast(forecast.Context{History: hist})
						got, err := predict(fmt.Sprintf("m%d", (w+i)%models), hist)
						if err != nil || got != want {
							failed.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			if failed.Load() != 0 {
				t.Fatalf("%d predictions failed under eviction churn", failed.Load())
			}
		})
	}
}
