package profile

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gallery/internal/obs"
)

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := BaselineOf("galleryserve", mkSummary(KindCPU, time.Now(), 100,
		FuncStat{Name: "encode", Self: 30, Cum: 60}, FuncStat{Name: "gc", Self: 10, Cum: 10}))
	if err := WriteBaseline(dir, b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, BaselineFileName("galleryserve"))
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Process != "galleryserve" || got.Kind != KindCPU {
		t.Fatalf("loaded %+v", got)
	}
	if got.Shares["encode"] != 0.3 || got.Shares["gc"] != 0.1 {
		t.Fatalf("shares = %v", got.Shares)
	}

	// Schema mismatch is a hard error, not silent acceptance.
	raw, _ := os.ReadFile(path)
	bad := []byte(`{"schema": 999` + string(raw[len(`{"schema": 1`):]))
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(badPath); err == nil {
		t.Fatal("schema mismatch loaded without error")
	}
}

func TestCompareBaseline(t *testing.T) {
	base := Baseline{Kind: KindCPU, Process: "p", Shares: map[string]float64{
		"known_hot": 0.30,
		"steady":    0.10,
	}}
	s := mkSummary(KindCPU, time.Now(), 1000,
		FuncStat{Name: "known_hot", Self: 400, Cum: 400},     // 0.40 < 0.30*2: fine
		FuncStat{Name: "steady", Self: 250, Cum: 250},        // 0.25 > 0.10*2: regressed
		FuncStat{Name: "brand_new_hog", Self: 200, Cum: 200}, // 0.20 > NewShare*2: regressed
		FuncStat{Name: "tiny", Self: 10, Cum: 10},            // under MinShare: ignored
	)
	regs := CompareBaseline(base, s, 2, 0.05, 0.01)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v", regs)
	}
	// Worst factor first: brand_new_hog at 0.20/0.01 = 20x beats steady at 2.5x.
	if regs[0].Function != "brand_new_hog" || regs[1].Function != "steady" {
		t.Fatalf("order = %+v", regs)
	}
	if regs[1].Share != 0.25 || regs[1].Baseline != 0.10 {
		t.Fatalf("steady = %+v", regs[1])
	}
}

type fakeSink struct{ calls []obs.Event }

func (f *fakeSink) publish(_ context.Context, ev obs.Event) { f.calls = append(f.calls, ev) }

func TestDetectorCheck(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &fakeSink{}
	d := NewDetector(DetectorConfig{
		Baseline: Baseline{Process: "p", Kind: KindCPU, Shares: map[string]float64{"ok": 0.5}},
		Obs:      reg,
		Sink:     sink.publish,
	})

	// Clean window: gauge 0, no events.
	clean := mkSummary(KindCPU, time.Now(), 100, FuncStat{Name: "ok", Self: 50, Cum: 50})
	if regs := d.Check(clean); len(regs) != 0 {
		t.Fatalf("clean window flagged %v", regs)
	}
	if v := reg.Snapshot().Gauges["profile_regression"]; v != 0 {
		t.Fatalf("gauge after clean = %v", v)
	}

	// Hog window: gauge 1, one event with expr-friendly fields.
	hog := mkSummary(KindCPU, time.Now(), 100,
		FuncStat{Name: "ok", Self: 40, Cum: 40}, FuncStat{Name: "hogEncode", Self: 60, Cum: 60})
	regs := d.Check(hog)
	if len(regs) != 1 || regs[0].Function != "hogEncode" {
		t.Fatalf("hog window = %+v", regs)
	}
	if v := reg.Snapshot().Gauges["profile_regression"]; v != 1 {
		t.Fatalf("gauge after hog = %v", v)
	}
	if len(sink.calls) != 1 || sink.calls[0].Kind != "profile" || sink.calls[0].Name != "regression" {
		t.Fatalf("sink calls = %+v", sink.calls)
	}
	if ev := sink.calls[0]; ev.Namespace != "" || ev.ModelID != "" || !ev.Instance.IsNil() {
		t.Fatalf("regression event is scoped: %+v", ev)
	}
	if fn := sink.calls[0].Fields["function"]; fn != "hogEncode" {
		t.Fatalf("event function = %v", fn)
	}
	if last := d.Last(); len(last) != 1 || last[0].Function != "hogEncode" {
		t.Fatalf("Last = %+v", last)
	}

	// Wrong-kind summaries are ignored entirely.
	if regs := d.Check(mkSummary(KindHeap, time.Now(), 100, FuncStat{Name: "x", Self: 100, Cum: 100})); regs != nil {
		t.Fatalf("heap summary checked: %v", regs)
	}

	// Recovery: next clean window resets gauge and Last.
	d.Check(clean)
	if v := reg.Snapshot().Gauges["profile_regression"]; v != 0 {
		t.Fatalf("gauge after recovery = %v", v)
	}
	if cnt := reg.Snapshot().Counters["profile_detector_checks_total"]; cnt != 3 {
		t.Fatalf("checks counter = %d", cnt)
	}
}
