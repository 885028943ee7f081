package core

import (
	"testing"

	"gallery/internal/relstore"
)

// TestSearchAllocsFollowResults is the allocation gate on the registry's
// read path: a metric-join search and a lineage read allocate for the
// instances they return, not for the rows the store scans to find them.
// The city gains ten times more instances whose metric fails the
// condition — more metric postings to scan, more candidates to sort — and
// neither call may allocate more.
func TestSearchAllocsFollowResults(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under -race")
	}
	h := newHarness(t)
	good := h.model(t, "good_base")
	bad := h.model(t, "bad_base")
	addCity := func(m *Model, n int, mape float64) {
		for i := 0; i < n; i++ {
			in := h.upload(t, m, "sf", []byte("w"))
			if err := h.g.InsertMetrics(in.ID, ScopeValidation, map[string]float64{"mape": mape}); err != nil {
				t.Fatal(err)
			}
		}
	}
	addCity(good, 5, 0.01)
	addCity(bad, 20, 0.9)

	search := InstanceFilter{City: "sf", MetricName: "mape", MetricOp: relstore.OpLe, MetricValue: 0.05, Limit: 5}
	measure := func() (searchAllocs, lineageAllocs float64) {
		searchAllocs = testing.AllocsPerRun(50, func() {
			if got, err := h.g.SearchInstances(search); err != nil || len(got) != 5 {
				t.Fatalf("search = %d instances, %v; want 5", len(got), err)
			}
		})
		lineageAllocs = testing.AllocsPerRun(50, func() {
			if got, err := h.g.Lineage("good_base"); err != nil || len(got) != 5 {
				t.Fatalf("lineage = %d instances, %v; want 5", len(got), err)
			}
		})
		return searchAllocs, lineageAllocs
	}
	search1, lineage1 := measure()
	addCity(bad, 180, 0.9)
	search10, lineage10 := measure()
	t.Logf("allocs per call: search %v → %v, lineage %v → %v", search1, search10, lineage1, lineage10)
	if search10 != search1 || lineage10 != lineage1 {
		t.Fatalf("allocs per call grew with rows scanned: search %v → %v, lineage %v → %v (20 → 200 failing instances)",
			search1, search10, lineage1, lineage10)
	}
}
