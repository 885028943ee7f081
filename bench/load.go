package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one completed operation: when it ended (offset into the timed
// region) and how long the client waited for it.
type sample struct {
	end time.Duration
	lat time.Duration
}

// loadResult is what a closed loop produced.
type loadResult struct {
	elapsed   time.Duration
	samples   []sample // successful, verified operations of every client
	attempted int64
	failed    int64 // errors + refusals + wrong answers
	firstErr  error
	// fixedCount marks a loop that worked through a fixed list: its
	// throughput is count / elapsed, not the median time slice.
	fixedCount bool
}

// closedLoop runs `clients` goroutines; each issues its next operation
// only when the previous one returned — the model of gateway callers and
// training pipelines, which wait for their reply. next hands out work on
// the client's own goroutine just before op: it returns false when the
// loop should stop (deadline passed or the fixed list exhausted). An op
// that returns an error is counted as failed and contributes no latency
// sample.
func closedLoop(clients int, next func(client int, elapsed time.Duration) bool, op func(client int) error) loadResult {
	// One slot per client, summed after the loop: nothing shared while it runs.
	type tally struct {
		samples           []sample
		attempted, failed int64
		firstErr          error
	}
	per := make([]tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &per[c]
			t.samples = make([]sample, 0, 1<<16)
			for {
				t0 := time.Now()
				if !next(c, t0.Sub(start)) {
					return
				}
				t.attempted++
				err := op(c)
				t1 := time.Now()
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				t.samples = append(t.samples, sample{end: t1.Sub(start), lat: t1.Sub(t0)})
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(start)}
	for _, t := range per {
		res.samples = append(res.samples, t.samples...)
		res.attempted += t.attempted
		res.failed += t.failed
		if res.firstErr == nil {
			res.firstErr = t.firstErr
		}
	}
	return res
}

// until is the `next` of a fixed-time loop.
func until(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed < d }
}

// slices is how many equal parts of the timed region throughput is taken
// over. The host's speed drifts within a minute; the median part is what
// the program sustains, and the spread between parts is reported beside
// it as client.slice_iqr_pct.
const slices = 10

// sliceRates returns operations per second in each of the `slices` equal
// parts of [0, span).
func sliceRates(samples []sample, span time.Duration) []float64 {
	counts := make([]float64, slices)
	width := span / slices
	for _, s := range samples {
		i := int(s.end / width)
		if i >= slices {
			i = slices - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return counts
}

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqrPct is the distance between the quartiles as a percentage of the
// median.
func iqrPct(v []float64) float64 {
	s := sortedCopy(v)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

// latenciesMS returns the samples' latencies in milliseconds, sorted.
func latenciesMS(samples []sample) []float64 {
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.lat
	}
	return durationsMS(ds)
}

// durationsMS converts and sorts a set of durations.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// tail returns the q-quantile only when at least ten samples lie beyond
// it — a percentile with fewer is one sample's luck, not a measurement —
// and 0 otherwise.
func tail(sortedMS []float64, q float64) float64 {
	if float64(len(sortedMS))*(1-q) < 10 {
		return 0
	}
	return quantile(sortedMS, q)
}
