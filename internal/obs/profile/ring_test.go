package profile

import (
	"testing"
	"time"
)

func mkSummary(kind string, end time.Time, total int64, fns ...FuncStat) Summary {
	s := Summary{Kind: kind, Start: end.Add(-time.Second), End: end, Unit: "nanoseconds",
		Total: total, Samples: 1, Top: fns}
	if total > 0 {
		for i := range s.Top {
			s.Top[i].SelfShare = float64(s.Top[i].Self) / float64(total)
			s.Top[i].CumShare = float64(s.Top[i].Cum) / float64(total)
		}
	}
	return s
}

func TestRingBoundAndOrder(t *testing.T) {
	r := NewRing()
	t0 := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	const n = ringKeep + 2
	for i := 0; i < n; i++ {
		r.Add(mkSummary(KindCPU, t0.Add(time.Duration(i)*time.Minute), int64(i+1)))
	}
	got := r.Recent(KindCPU, 0)
	if len(got) != ringKeep {
		t.Fatalf("retained %d, want %d", len(got), ringKeep)
	}
	// Newest first: totals n, n-1, ..., 3.
	for i := range got {
		if want := int64(n - i); got[i].Total != want {
			t.Fatalf("recent[%d].Total = %d, want %d", i, got[i].Total, want)
		}
	}
	if got = r.Recent(KindCPU, 1); len(got) != 1 || got[0].Total != n {
		t.Fatalf("Recent(1) = %v", got)
	}
	if got = r.Recent(KindHeap, 0); len(got) != 0 {
		t.Fatalf("unknown kind returned %v", got)
	}
}

func TestRingHistoryAcrossKinds(t *testing.T) {
	r := NewRing()
	t0 := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	r.Add(mkSummary(KindCPU, t0.Add(1*time.Minute), 1))
	r.Add(mkSummary(KindHeap, t0.Add(2*time.Minute), 2))
	r.Add(mkSummary(KindCPU, t0.Add(3*time.Minute), 3))
	all := r.History(0)
	if len(all) != 3 {
		t.Fatalf("history len %d", len(all))
	}
	if all[0].Total != 3 || all[1].Total != 2 || all[2].Total != 1 {
		t.Fatalf("history not newest-first: %v", all)
	}
	if lim := r.History(2); len(lim) != 2 || lim[0].Total != 3 {
		t.Fatalf("History(2) = %v", lim)
	}
	kinds := r.Kinds()
	if len(kinds) != 2 || kinds[0] != KindCPU || kinds[1] != KindHeap {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestMerge(t *testing.T) {
	t0 := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	a := mkSummary(KindCPU, t0.Add(time.Minute), 100,
		FuncStat{Name: "hot", Self: 60, Cum: 80}, FuncStat{Name: "warm", Self: 20, Cum: 40})
	b := mkSummary(KindCPU, t0.Add(2*time.Minute), 100,
		FuncStat{Name: "hot", Self: 40, Cum: 60}, FuncStat{Name: "cold", Self: 5, Cum: 5})
	m := Merge([]Summary{a, b}, 10)
	if m.Total != 200 || m.Samples != 2 {
		t.Fatalf("total=%d samples=%d", m.Total, m.Samples)
	}
	if !m.Start.Equal(a.Start) || !m.End.Equal(b.End) {
		t.Fatalf("window [%v, %v]", m.Start, m.End)
	}
	hot := m.Top[0]
	if hot.Name != "hot" || hot.Self != 100 || hot.Cum != 140 {
		t.Fatalf("hot = %+v", hot)
	}
	if hot.SelfShare != 0.5 {
		t.Fatalf("hot self share = %v, want 0.5", hot.SelfShare)
	}
	if len(m.Top) != 3 {
		t.Fatalf("merged top = %v", m.Top)
	}
	if got := Merge(nil, 5); got.Total != 0 || len(got.Top) != 0 {
		t.Fatalf("Merge(nil) = %+v", got)
	}
	// topN re-truncation after merge.
	if got := Merge([]Summary{a, b}, 1); len(got.Top) != 1 || got.Top[0].Name != "hot" {
		t.Fatalf("Merge topN=1 = %v", got.Top)
	}
}

func TestRingViewMergeWindow(t *testing.T) {
	r := NewRing()
	t0 := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	r.Add(mkSummary(KindCPU, t0.Add(1*time.Minute), 100, FuncStat{Name: "old", Self: 100, Cum: 100}))
	r.Add(mkSummary(KindCPU, t0.Add(50*time.Minute), 100, FuncStat{Name: "new", Self: 100, Cum: 100}))
	now := t0.Add(51 * time.Minute)

	all := r.View("p", 0, 10, now)
	if all.Windows[KindCPU] != 2 || all.Merged[KindCPU].Total != 200 {
		t.Fatalf("unwindowed view = %+v", all)
	}
	recent := r.View("p", 10*time.Minute, 10, now)
	if recent.Windows[KindCPU] != 1 || recent.Merged[KindCPU].Total != 100 {
		t.Fatalf("windowed view = %+v", recent)
	}
	if recent.Merged[KindCPU].Top[0].Name != "new" {
		t.Fatalf("windowed view kept %v", recent.Merged[KindCPU].Top)
	}
}
