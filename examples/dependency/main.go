// Dependency walks the exact scenario of paper Figures 5–7: the 5-model
// dependency graph, an upstream instance update that fans version bumps
// out to every downstream model without touching production, and a new
// dependency edge that does the same.
//
// Run with: go run ./examples/dependency
package main

import (
	"context"
	"fmt"
	"log"

	"gallery/internal/blobstore"
	"gallery/internal/core"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

func main() {
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	register := func(base string, major int, ups ...uuid.UUID) *core.Model {
		m, err := reg.RegisterModel(core.ModelSpec{
			BaseVersionID: base, Project: "marketplace", InitialMajor: major, Upstreams: ups,
		})
		if err != nil {
			log.Fatal(err)
		}
		return m
	}

	// Figure 5: X and Y depend on A; A depends on B and C.
	b := register("model_B", 2)
	c := register("model_C", 3)
	a := register("model_A", 4, b.ID, c.ID)
	x := register("model_X", 7, a.ID)
	y := register("model_Y", 8, a.ID)
	models := []*core.Model{a, b, c, x, y}

	show := func(title string) {
		fmt.Println(title)
		for _, m := range models {
			latest, err := reg.LatestVersion(m.ID)
			if err != nil {
				log.Fatal(err)
			}
			prod, err := reg.ProductionVersion(context.Background(), m.ID)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-8s latest=%-5s production=%-5s (cause: %s)\n",
				m.BaseVersionID, latest.String(), prod.String(), latest.Cause)
		}
		fmt.Println()
	}
	show("Figure 5 — initial graph:")

	// Figure 6: update Model B's instance (2.0 -> 2.1).
	if _, err := reg.UploadInstance(core.InstanceSpec{
		ModelID: b.ID, Name: "B retrained", Framework: "example",
	}, []byte("new B coefficients")); err != nil {
		log.Fatal(err)
	}
	show("Figure 6 — after retraining B (2.0 -> 2.1):")
	fmt.Println("  note: A, X, Y gained dep_update versions but their production")
	fmt.Println("  versions are unchanged — owners must opt in (paper §3.4.2).")

	// The owner of A chooses to upgrade.
	hist, err := reg.VersionHistory(a.ID)
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Promote(context.Background(), hist[len(hist)-1].ID); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  A's owner promoted 4.1 to production.")
	fmt.Println()

	// Figure 7: add Model D as a new dependency of A.
	d := register("model_D", 5)
	models = append(models, d)
	if err := reg.AddDependency(context.Background(), a.ID, d.ID); err != nil {
		log.Fatal(err)
	}
	show("Figure 7 — after adding D as a dependency of A:")

	// Impact analysis: the holistic view the paper motivates.
	impact, err := reg.TransitiveDownstreams(b.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blast radius of changing B: %d models (A, X, Y)\n", len(impact))

	// Cycles are rejected.
	if err := reg.AddDependency(context.Background(), b.ID, x.ID); err != nil {
		fmt.Printf("adding B -> X correctly rejected: %v\n", err)
	}
}
