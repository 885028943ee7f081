package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/uuid"
)

// Mode selects where the simulator's forecasting models come from.
type Mode uint8

// Simulation modes (paper §4.3 before/after comparison).
const (
	// ModeInSimTraining trains every model variant inside the run.
	ModeInSimTraining Mode = iota + 1
	// ModeGalleryServed fetches pre-trained instances from Gallery.
	ModeGalleryServed
)

// rider is a trip request agent.
type rider struct {
	x, y      float64
	destX     float64
	destY     float64
	requested float64 // sim seconds
}

// Config parameterizes one simulation run.
type Config struct {
	Mode Mode
	// Registry supplies pre-trained models in ModeGalleryServed; the
	// instance IDs to fetch are listed in ModelInstanceIDs.
	Registry         *core.Registry
	ModelInstanceIDs []uuid.UUID

	// ModelVariants is how many forecasting model variants the run uses
	// (the paper's "wide array of models being simulated"). In
	// ModeInSimTraining each is trained on TrainingPoints observations.
	ModelVariants  int
	TrainingPoints int

	// SpatialShift moves demand mass between city quadrants over the day
	// (0 = spatially uniform demand, as in the basic configuration).
	SpatialShift float64
	// RepositionEverySec, when positive, relocates idle drivers toward
	// predicted-demand quadrants on this cadence, using RepositionModels.
	RepositionEverySec float64
	// RepositionModels holds one forecaster per quadrant (exactly 4),
	// typically fetched from Gallery.
	RepositionModels []forecast.Model
	// RepositionFraction is the probability an idle driver relocates at
	// each repositioning tick (default 0.5).
	RepositionFraction float64

	// World shape.
	Drivers       int
	DurationHours int
	GridKm        float64 // square world side
	SpeedKmh      float64
	BaseDemand    float64 // rider requests per hour
	MatchEverySec float64
	MaxWaitSec    float64
	Seed          int64
}

func (c *Config) defaults() {
	if c.ModelVariants <= 0 {
		c.ModelVariants = 4
	}
	if c.TrainingPoints <= 0 {
		c.TrainingPoints = 24 * 60
	}
	if c.Drivers <= 0 {
		c.Drivers = 50
	}
	if c.DurationHours <= 0 {
		c.DurationHours = 6
	}
	if c.GridKm <= 0 {
		c.GridKm = 10
	}
	if c.SpeedKmh <= 0 {
		c.SpeedKmh = 30
	}
	if c.BaseDemand <= 0 {
		c.BaseDemand = 300
	}
	if c.MatchEverySec <= 0 {
		c.MatchEverySec = 10
	}
	if c.MaxWaitSec <= 0 {
		c.MaxWaitSec = 600
	}
	if c.RepositionFraction <= 0 {
		c.RepositionFraction = 0.5
	}
}

// Resources is the simulated cost ledger that reproduces the paper's
// resource-saving claim (§4.3: "8GB memory and one hour CPU time per
// simulation").
type Resources struct {
	// TrainCPUSeconds is simulated CPU spent training models in-run.
	TrainCPUSeconds float64
	// ModelMemoryBytes is the simulated peak memory held for model
	// training state plus resident models.
	ModelMemoryBytes int64
	// GalleryFetches counts instances fetched from the registry.
	GalleryFetches int
}

// Report summarizes one run.
type Report struct {
	Mode              Mode
	CompletedTrips    int
	AbandonedRiders   int
	MeanWaitSec       float64
	P95WaitSec        float64
	DriverUtilization float64 // fraction of driver-time on trips
	Resources         Resources
	// SurgeUpdates counts model-driven pricing refreshes.
	SurgeUpdates int
	// Repositions counts idle-driver relocations driven by forecasts.
	Repositions int
	// MeanPickupKm is the mean driver-to-rider distance at match time —
	// the direct measure of how well supply was positioned.
	MeanPickupKm float64
}

// simulated cost model: training one point of one variant costs cpuPerPoint
// seconds of CPU and holds memPerPoint bytes of working set; a resident
// trained model costs modelResidentBytes.
const (
	cpuPerPoint        = 0.012   // s/point — 20 variants × 15k points ≈ 1 CPU-hour
	memPerPoint        = 28_000  // bytes/point of training working set
	modelResidentBytes = 4 << 20 // resident size per trained model
)

// Run executes one simulation.
func Run(cfg Config) (Report, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := Report{Mode: cfg.Mode}

	models, err := acquireModels(&cfg, &rep)
	if err != nil {
		return rep, err
	}
	if cfg.RepositionEverySec > 0 && len(cfg.RepositionModels) != 4 {
		return rep, fmt.Errorf("sim: repositioning needs exactly 4 quadrant models, got %d", len(cfg.RepositionModels))
	}

	// World state.
	type driverState struct {
		x, y float64
		busy bool
	}
	drivers := make([]driverState, cfg.Drivers)
	for i := range drivers {
		drivers[i] = driverState{x: rng.Float64() * cfg.GridKm, y: rng.Float64() * cfg.GridKm}
	}
	var waiting []rider
	var q eventQueue
	horizon := float64(cfg.DurationHours) * 3600

	// Demand history for the forecaster, one bucket per model refresh,
	// plus per-quadrant histories for repositioning.
	var demandHistory []float64
	bucketCount := 0.0
	var qHistory [4][]float64
	var qBucket [4]float64
	surge := 1.0

	// Seed periodic events.
	q.push(event{at: 0, kind: evMatch})
	q.push(event{at: 3600, kind: evModelRefresh})
	if cfg.RepositionEverySec > 0 {
		q.push(event{at: cfg.RepositionEverySec, kind: evReposition})
	}
	scheduleArrival := func(now float64) {
		// Poisson arrivals; surge damps conversion.
		rate := cfg.BaseDemand * demandShape(now) / 3600 // per second
		rate /= surge
		if rate <= 0 {
			rate = 1e-6
		}
		dt := rng.ExpFloat64() / rate
		var r rider
		if cfg.SpatialShift > 0 {
			origin := sampleQuadrant(rng, quadrantWeights(now, cfg.SpatialShift))
			r.x, r.y = samplePoint(rng, origin, cfg.GridKm)
		} else {
			r.x, r.y = rng.Float64()*cfg.GridKm, rng.Float64()*cfg.GridKm
		}
		r.destX, r.destY = rng.Float64()*cfg.GridKm, rng.Float64()*cfg.GridKm
		q.push(event{at: now + dt, kind: evRiderRequest, rider: r})
	}
	scheduleArrival(0)

	var totalWait, busySeconds, totalPickupKm float64
	var waits []float64

	for q.Len() > 0 {
		e := q.pop()
		if e.at > horizon {
			break
		}
		now := e.at
		switch e.kind {
		case evRiderRequest:
			r := e.rider
			r.requested = now
			waiting = append(waiting, r)
			bucketCount++
			qBucket[quadrant(r.x, r.y, cfg.GridKm)]++
			scheduleArrival(now)

		case evMatch:
			// Expire riders past their patience.
			kept := waiting[:0]
			for _, r := range waiting {
				if now-r.requested > cfg.MaxWaitSec {
					rep.AbandonedRiders++
					continue
				}
				kept = append(kept, r)
			}
			waiting = kept
			// Greedy nearest-driver matching, FIFO over riders.
			remaining := waiting[:0]
			for _, r := range waiting {
				best, bestD := -1, math.MaxFloat64
				for i, d := range drivers {
					if d.busy {
						continue
					}
					dist := math.Hypot(d.x-r.x, d.y-r.y)
					if dist < bestD {
						best, bestD = i, dist
					}
				}
				if best < 0 {
					remaining = append(remaining, r)
					continue
				}
				drivers[best].busy = true
				totalPickupKm += bestD
				wait := now - r.requested
				totalWait += wait
				waits = append(waits, wait)
				rep.CompletedTrips++
				tripKm := bestD + math.Hypot(r.x-r.destX, r.y-r.destY)
				tripSec := tripKm / cfg.SpeedKmh * 3600
				busySeconds += tripSec
				drivers[best].x, drivers[best].y = r.destX, r.destY
				q.push(event{at: now + tripSec, kind: evTripEnd, driver: best})
			}
			waiting = append([]rider(nil), remaining...)
			q.push(event{at: now + cfg.MatchEverySec, kind: evMatch})

		case evTripEnd:
			drivers[e.driver].busy = false

		case evModelRefresh:
			demandHistory = append(demandHistory, bucketCount)
			bucketCount = 0
			for qi := range qHistory {
				qHistory[qi] = append(qHistory[qi], qBucket[qi])
				qBucket[qi] = 0
			}
			// Ensemble forecast of next-hour demand drives surge.
			var sum float64
			for _, m := range models {
				sum += m.Forecast(forecast.Context{
					History: demandHistory,
					Time:    time.Unix(int64(now), 0).UTC(),
				})
			}
			pred := sum / float64(len(models))
			if base := cfg.BaseDemand; base > 0 && pred > 0 {
				surge = clamp(pred/base, 0.7, 2.5)
			}
			rep.SurgeUpdates++
			q.push(event{at: now + 3600, kind: evModelRefresh})

		case evReposition:
			// Forecast next-hour demand per quadrant and relocate a
			// fraction of idle drivers toward predicted hot spots.
			var w [4]float64
			var sum float64
			for qi := range w {
				pred := cfg.RepositionModels[qi].Forecast(forecast.Context{
					History: qHistory[qi],
					Time:    time.Unix(int64(now), 0).UTC(),
				})
				if pred < 0.01 {
					pred = 0.01
				}
				w[qi] = pred
				sum += pred
			}
			for qi := range w {
				w[qi] /= sum
			}
			for di := range drivers {
				if drivers[di].busy || rng.Float64() > cfg.RepositionFraction {
					continue
				}
				target := sampleQuadrant(rng, w)
				drivers[di].x, drivers[di].y = samplePoint(rng, target, cfg.GridKm)
				rep.Repositions++
			}
			q.push(event{at: now + cfg.RepositionEverySec, kind: evReposition})
		}
	}

	if n := len(waits); n > 0 {
		rep.MeanWaitSec = totalWait / float64(n)
		rep.P95WaitSec = percentile(waits, 0.95)
		rep.MeanPickupKm = totalPickupKm / float64(n)
	}
	rep.DriverUtilization = busySeconds / (float64(cfg.Drivers) * horizon)
	if rep.DriverUtilization > 1 {
		rep.DriverUtilization = 1
	}
	return rep, nil
}

// acquireModels obtains the run's forecasting models per the mode,
// charging the resource ledger.
func acquireModels(cfg *Config, rep *Report) ([]forecast.Model, error) {
	switch cfg.Mode {
	case ModeInSimTraining:
		// Pre-Gallery: train every variant inside the run. The training
		// data must also be generated/held in memory here.
		models := make([]forecast.Model, 0, cfg.ModelVariants)
		series := forecast.Generate(forecast.CityConfig{
			Name: "simworld", Base: cfg.BaseDemand, DailyAmp: cfg.BaseDemand * 0.3,
			NoiseStd: cfg.BaseDemand * 0.05, Seed: cfg.Seed,
		}, time.Unix(0, 0).UTC(), time.Hour, cfg.TrainingPoints)
		for i := 0; i < cfg.ModelVariants; i++ {
			m := variant(i)
			if err := m.Train(series); err != nil {
				return nil, fmt.Errorf("sim: in-sim training variant %d: %w", i, err)
			}
			models = append(models, m)
			rep.Resources.TrainCPUSeconds += cpuPerPoint * float64(cfg.TrainingPoints)
			rep.Resources.ModelMemoryBytes += memPerPoint*int64(cfg.TrainingPoints) + modelResidentBytes
		}
		return models, nil

	case ModeGalleryServed:
		// Post-Gallery: fetch pre-trained blobs; only resident model
		// memory is held, and no training CPU is spent in-run.
		if cfg.Registry == nil || len(cfg.ModelInstanceIDs) == 0 {
			return nil, fmt.Errorf("sim: gallery mode needs a registry and instance ids")
		}
		models := make([]forecast.Model, 0, len(cfg.ModelInstanceIDs))
		for _, id := range cfg.ModelInstanceIDs {
			blob, err := cfg.Registry.FetchBlob(context.Background(), id)
			if err != nil {
				return nil, fmt.Errorf("sim: fetch %s: %w", id, err)
			}
			m, err := forecast.Decode(blob)
			if err != nil {
				return nil, fmt.Errorf("sim: decode %s: %w", id, err)
			}
			models = append(models, m)
			rep.Resources.GalleryFetches++
			rep.Resources.ModelMemoryBytes += modelResidentBytes
		}
		return models, nil

	default:
		return nil, fmt.Errorf("sim: unknown mode %d", cfg.Mode)
	}
}

// variant returns the i-th forecasting model variant.
func variant(i int) forecast.Model {
	switch i % 4 {
	case 0:
		return &forecast.Heuristic{K: 5}
	case 1:
		return &forecast.EWMA{Alpha: 0.3}
	case 2:
		return &forecast.SeasonalNaive{Period: 24}
	default:
		return &forecast.LinearAR{Lags: 12}
	}
}

// demandShape modulates demand over the day (peaks at commute hours).
func demandShape(simSeconds float64) float64 {
	hour := math.Mod(simSeconds/3600, 24)
	return 1 + 0.5*math.Sin(2*math.Pi*(hour-8)/24)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	// Nearest-rank definition: the smallest value with at least p of the
	// mass at or below it.
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
