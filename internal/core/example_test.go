package core_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// Example walks the paper's §4.1 workflow: register a model, upload a
// trained instance blob-first, record a metric, search by constraints,
// and fetch the blob back for serving.
func Example() {
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clock.NewMock(time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)),
		UUIDs: uuid.NewSeeded(1),
	})
	if err != nil {
		log.Fatal(err)
	}

	m, err := reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "supply_rejection",
		Project:       "example-project",
		Name:          "random_forest",
		Domain:        "UberX",
	})
	if err != nil {
		log.Fatal(err)
	}

	in, err := reg.UploadInstance(core.InstanceSpec{
		ModelID:   m.ID,
		Name:      "Random Forest",
		City:      "New York City",
		Framework: "SparkML",
	}, []byte("serialized model"))
	if err != nil {
		log.Fatal(err)
	}

	if _, err := reg.InsertMetric(context.Background(), in.ID, "bias", core.ScopeValidation, 0.05); err != nil {
		log.Fatal(err)
	}

	found, err := reg.SearchInstances(core.InstanceFilter{
		Project:     "example-project",
		MetricName:  "bias",
		MetricOp:    relstore.OpLt,
		MetricValue: 0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	blob, err := reg.FetchBlob(context.Background(), found[0].ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d instance(s) in %s; blob %d bytes\n", len(found), found[0].City, len(blob))
	// Output: found 1 instance(s) in New York City; blob 16 bytes
}

// ExampleRegistry_AddDependency shows dependency tracking with automatic
// version propagation (paper Figures 5–7).
func ExampleRegistry_AddDependency() {
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock: clock.NewMock(time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)),
		UUIDs: uuid.NewSeeded(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	b, _ := reg.RegisterModel(core.ModelSpec{BaseVersionID: "B", InitialMajor: 2})
	a, _ := reg.RegisterModel(core.ModelSpec{BaseVersionID: "A", InitialMajor: 4,
		Upstreams: []uuid.UUID{b.ID}})

	// Retraining B bumps A's version without touching A's production.
	if _, err := reg.UploadInstance(core.InstanceSpec{ModelID: b.ID}, []byte("b2")); err != nil {
		log.Fatal(err)
	}
	latest, _ := reg.LatestVersion(a.ID)
	prod, _ := reg.ProductionVersion(context.Background(), a.ID)
	fmt.Printf("A latest %s (cause %s), production %s\n", latest, latest.Cause, prod)
	// Output: A latest 4.1 (cause dep_update), production 4.0
}
