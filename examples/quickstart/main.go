// Quickstart walks the canonical Gallery user workflow of paper §4.1
// (Listings 3–5) against an in-process registry: train a model, serialize
// it, upload it with metadata, record a performance metric, search for it
// by constraints, and fetch it back for serving.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/relstore"
)

func main() {
	// Gallery over in-memory stores. A real deployment would point at
	// galleryd; the API is the same.
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Train a forecasting model on synthetic demand — the stand-in for
	// "pipeline.fit(train_df)" in Listing 3.
	start := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	data := forecast.Generate(forecast.CityConfig{
		Name: "new_york", Base: 800, DailyAmp: 250, WeeklyAmp: 80, NoiseStd: 30, Seed: 1,
	}, start, time.Hour, 24*45)
	model := &forecast.LinearAR{Lags: 24}
	if err := model.Train(data[:24*40]); err != nil {
		log.Fatal(err)
	}
	blob, err := forecast.Encode(model) // "model_content = serialize(model_object)"
	if err != nil {
		log.Fatal(err)
	}

	// Listing 3: create the Gallery model and upload the instance.
	m, err := reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "supply_rejection",
		Project:       "example-project",
		Name:          "random_forest",
		Owner:         "quickstart",
		Domain:        "UberX",
	})
	if err != nil {
		log.Fatal(err)
	}
	in, err := reg.UploadInstance(core.InstanceSpec{
		ModelID:      m.ID,
		Name:         "Random Forest",
		City:         "New York City",
		Framework:    "gallery-forecast",
		TrainingData: "synthetic://new_york/v1",
		CodePointer:  "examples/quickstart",
		Seed:         1,
	}, blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded instance %s\n  base version: %s\n  blob at:      %s\n",
		in.ID, in.BaseVersionID, in.BlobLocation)

	// Listing 4: record validation performance.
	met, err := forecast.Backtest(&forecast.LinearAR{Lags: 24}, data, 24*40)
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.InsertMetrics(in.ID, core.ScopeValidation, met.AsMap()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validation metrics: mape=%.2f%% mae=%.1f bias=%.4f r2=%.3f\n",
		met.MAPE, met.MAE, met.Bias, met.R2)

	// Listing 5: search by project + name + metric constraint.
	results, err := reg.SearchInstances(core.InstanceFilter{
		Project:     "example-project",
		Name:        "Random Forest",
		MetricName:  "bias",
		MetricOp:    relstore.OpLt,
		MetricValue: 0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search matched %d instance(s)\n", len(results))

	// Fetch the blob back and serve a prediction with it.
	servedBlob, err := reg.FetchBlob(context.Background(), results[0].ID)
	if err != nil {
		log.Fatal(err)
	}
	served, err := forecast.Decode(servedBlob)
	if err != nil {
		log.Fatal(err)
	}
	next := served.Forecast(forecast.Context{
		History: data.Values(),
		Time:    data[len(data)-1].T.Add(time.Hour),
	})
	fmt.Printf("served model %q forecasts next-hour demand: %.1f\n", served.Name(), next)

	// Reproducibility audit (paper §6.2).
	rep, err := reg.Completeness(in.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reproducibility completeness: %.0f%% (missing: %v)\n", rep.Score*100, rep.Missing)
}
