package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gallery/internal/blobstore"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// TestConcurrentRegistryUse hammers the registry from many goroutines
// doing the full mix of operations — uploads, metrics, searches, blob
// fetches, dependency queries — and then audits global invariants.
// Run with -race for the interesting signal.
func TestConcurrentRegistryUse(t *testing.T) {
	g, err := New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), Options{
		UUIDs: uuid.NewSeeded(99),
	})
	if err != nil {
		t.Fatal(err)
	}
	const models = 4
	ms := make([]*Model, models)
	for i := range ms {
		m, err := g.RegisterModel(ModelSpec{
			BaseVersionID: fmt.Sprintf("conc%d", i), Project: "conc", Name: "m",
		})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	// A dependency chain conc1 -> conc0 so uploads propagate under load.
	if err := g.AddDependency(context.Background(), ms[1].ID, ms[0].ID); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m := ms[(w+i)%models]
				in, err := g.UploadInstance(InstanceSpec{
					ModelID: m.ID, City: fmt.Sprintf("c%d", w),
				}, []byte(fmt.Sprintf("blob-%d-%d", w, i)))
				if err != nil {
					t.Errorf("upload: %v", err)
					return
				}
				if _, err := g.InsertMetric(context.Background(), in.ID, "mape", ScopeProduction, float64(i)); err != nil {
					t.Errorf("metric: %v", err)
					return
				}
				if _, err := g.FetchBlob(context.Background(), in.ID); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				if _, err := g.SearchInstances(InstanceFilter{City: fmt.Sprintf("c%d", w), Limit: 5}); err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if _, err := g.VersionHistory(m.ID); err != nil {
					t.Errorf("history: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Invariants after the storm.
	_, instances, metrics := g.Counts()
	if instances != workers*perWorker {
		t.Fatalf("instances = %d, want %d", instances, workers*perWorker)
	}
	if metrics != workers*perWorker {
		t.Fatalf("metrics = %d, want %d", metrics, workers*perWorker)
	}
	for _, m := range ms {
		latest, err := g.LatestVersion(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := g.VersionHistory(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		// History minors must be exactly 0..latest with no gaps or dups.
		if len(hist) != latest.Minor+1 {
			t.Fatalf("model %s: %d history records for latest minor %d",
				m.BaseVersionID, len(hist), latest.Minor)
		}
		for i, v := range hist {
			if v.Minor != i {
				t.Fatalf("model %s: history[%d].Minor = %d", m.BaseVersionID, i, v.Minor)
			}
		}
		// Exactly one production version.
		prodCount := 0
		for _, v := range hist {
			if v.Production {
				prodCount++
			}
		}
		if prodCount != 1 {
			t.Fatalf("model %s has %d production versions", m.BaseVersionID, prodCount)
		}
	}
	// No orphans: every metadata write committed with its blob.
	orphans, err := g.DAL().Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Fatalf("orphans after concurrent use: %d", len(orphans))
	}
	dangling, err := g.DAL().Dangling()
	if err != nil {
		t.Fatal(err)
	}
	if len(dangling) != 0 {
		t.Fatalf("dangling metadata after concurrent use: %d", len(dangling))
	}
}
