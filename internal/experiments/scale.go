package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"gallery/internal/core"
	"gallery/internal/uuid"
)

// Experiment E7 — the paper's scale claim: "Gallery is managing more than
// 1 million model instances" (§4). The experiment registers tiers of
// instances (sharded by city like Marketplace Forecasting) and measures
// save throughput and the latency of the operations that must stay fast at
// scale: indexed metadata search, point fetch, and lineage traversal.

// ScaleResult is one tier's measurements. Latencies are the median of
// scaleProbeIters repeated probes: single-shot numbers on shared
// hardware tell more about the scheduler than the store.
type ScaleResult struct {
	Instances      int
	SaveThroughput float64 // instances/second
	SearchLatency  time.Duration
	SearchResults  int
	FetchLatency   time.Duration
	LineageLatency time.Duration
	LineageLen     int
	// HeapPerInstance is the live heap the uploads added, over the
	// instances: read after a GC before the first upload and after the
	// last, so it counts what the registry keeps per instance (its rows,
	// their index postings, the blob and its index entry), not garbage.
	HeapPerInstance float64
}

// scaleProbeIters repeats each latency probe enough for stable medians.
const scaleProbeIters = 32

// probe runs f repeatedly and returns its median latency.
func probe(iters int, f func() error) (time.Duration, error) {
	lats := make([]time.Duration, iters)
	for i := range lats {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		lats[i] = time.Since(t0)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], nil
}

// Scale runs the tier sweep. Blobs are small placeholders: the claim under
// test is metadata-layer scalability, blob bytes live off-path in the blob
// store.
func Scale(tiers []int) ([]ScaleResult, error) {
	var out []ScaleResult
	for _, n := range tiers {
		r, err := scaleTier(n)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func scaleTier(n int) (ScaleResult, error) {
	env := mustEnv(int64(7000 + n))
	res := ScaleResult{Instances: n}

	const cities = 400 // "hundreds of cities across the globe" (§1)
	models := make([]*core.Model, cities)
	for c := 0; c < cities; c++ {
		m, err := env.Reg.RegisterModel(core.ModelSpec{
			BaseVersionID: fmt.Sprintf("demand_city%03d", c),
			Project:       "marketplace", Name: "demand_forecaster", Domain: "UberX",
		})
		if err != nil {
			return res, err
		}
		models[c] = m
	}

	blob := []byte("tiny placeholder model blob")
	heapBefore := liveHeap()
	start := time.Now()
	var probeID uuid.UUID
	for i := 0; i < n; i++ {
		env.Clock.Advance(time.Second)
		in, err := env.Reg.UploadInstance(core.InstanceSpec{
			ModelID: models[i%cities].ID,
			Name:    "linear_regression",
			City:    fmt.Sprintf("city%03d", i%cities),
		}, blob)
		if err != nil {
			return res, err
		}
		if i == n/2 {
			probeID = in.ID
		}
	}
	res.SaveThroughput = float64(n) / time.Since(start).Seconds()
	res.HeapPerInstance = float64(liveHeap()-heapBefore) / float64(n)

	// Indexed metadata search: all instances of one city.
	var err error
	var found []*core.Instance
	res.SearchLatency, err = probe(scaleProbeIters, func() error {
		var err error
		found, err = env.Reg.SearchInstances(core.InstanceFilter{City: "city123", Limit: 100})
		return err
	})
	if err != nil {
		return res, err
	}
	res.SearchResults = len(found)

	// Point fetch (metadata + blob through the cache).
	res.FetchLatency, err = probe(scaleProbeIters, func() error {
		_, err := env.Reg.FetchBlob(context.Background(), probeID)
		return err
	})
	if err != nil {
		return res, err
	}

	// Lineage traversal of one base version id.
	var lineage []*core.Instance
	res.LineageLatency, err = probe(scaleProbeIters, func() error {
		var err error
		lineage, err = env.Reg.Lineage("demand_city123")
		return err
	})
	if err != nil {
		return res, err
	}
	res.LineageLen = len(lineage)
	runtime.KeepAlive(env)
	return res, nil
}

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// FormatScale renders the tier table.
func FormatScale(rs []ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %-16s %-14s %-16s %-12s\n",
		"instances", "save inst/s", "search (city)", "fetch", "lineage (base)", "heap/inst")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-12d %-14.0f %-16s %-14s %-16s %-12s\n",
			r.Instances, r.SaveThroughput,
			fmt.Sprintf("%v/%d hits", r.SearchLatency.Round(time.Microsecond), r.SearchResults),
			r.FetchLatency.Round(time.Microsecond),
			fmt.Sprintf("%v/%d inst", r.LineageLatency.Round(time.Microsecond), r.LineageLen),
			fmt.Sprintf("%.0f B", r.HeapPerInstance))
	}
	b.WriteString("paper claim: Gallery manages >1M model instances under Michelangelo (§4)\n")
	return b.String()
}
