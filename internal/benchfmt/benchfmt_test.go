package benchfmt

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func metric(name string, value float64, better string, tol float64) Metric {
	return Metric{Name: name, Value: value, Better: better, Tol: tol}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := Result{
		Experiment: "serving",
		Metrics: []Metric{
			{Name: "rows_scanned", Unit: "rows", Value: 12345, Better: LowerIsBetter, Tol: 0.01},
			{Name: "allocs_per_op", Value: 3, Better: LowerIsBetter, Tol: 0.5},
		},
	}
	if err := Write(dir, r); err != nil {
		t.Fatal(err)
	}
	back, err := Load(filepath.Join(dir, FileName("serving")))
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion {
		t.Fatalf("schema = %d", back.Schema)
	}
	if len(back.Metrics) != 2 || back.Metrics[1].Tol != 0.5 || back.Metrics[0].Unit != "rows" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestLoadBaselineMissingIsNotError(t *testing.T) {
	_, ok, err := LoadBaseline(t.TempDir(), "nope")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("missing baseline reported ok")
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, Result{Experiment: "x"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName("x"))
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	// Corrupt the schema number.
	b := []byte(`{"schema": 999, "experiment": "x"}`)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema load err = %v", err)
	}
}

func TestCompareGating(t *testing.T) {
	base := Result{Experiment: "e", Metrics: []Metric{
		metric("lat", 100, LowerIsBetter, 0.2),
		metric("thr", 1000, HigherIsBetter, 0.2),
		metric("stable", 7, LowerIsBetter, 0.25),
	}}

	// Within tolerance: no regression.
	cur := Result{Experiment: "e", Metrics: []Metric{
		metric("lat", 110, LowerIsBetter, 0.2),
		metric("thr", 900, HigherIsBetter, 0.2),
		metric("stable", 7, LowerIsBetter, 0.25),
	}}
	deltas, regressed := Compare(base, cur)
	if regressed {
		t.Fatalf("within-tolerance rerun regressed: %+v", deltas)
	}

	// Latency blowout regresses.
	cur.Metrics[0].Value = 200
	if _, regressed := Compare(base, cur); !regressed {
		t.Fatal("2x latency did not regress")
	}
	cur.Metrics[0].Value = 100

	// Throughput collapse regresses.
	cur.Metrics[1].Value = 500
	if _, regressed := Compare(base, cur); !regressed {
		t.Fatal("halved throughput did not regress")
	}
	cur.Metrics[1].Value = 1000

	// Each metric gates within its own band.
	cur.Metrics[2].Value = 8 // +14% < 25%
	if _, regressed := Compare(base, cur); regressed {
		t.Fatal("+14% under tol 25% regressed")
	}
	cur.Metrics[2].Value = 10 // +43%
	if _, regressed := Compare(base, cur); !regressed {
		t.Fatal("+43% over tol 25% passed")
	}
}

func TestCompareGoneGatedMetricRegresses(t *testing.T) {
	base := Result{Experiment: "e", Metrics: []Metric{metric("gated", 5, LowerIsBetter, 0.1)}}
	cur := Result{Experiment: "e"}
	deltas, regressed := Compare(base, cur)
	if !regressed {
		t.Fatal("vanished gated metric did not regress")
	}
	if len(deltas) != 1 || deltas[0].Status != StatusGone {
		t.Fatalf("deltas = %+v, want one gone", deltas)
	}
}

func TestCompareNewMetricIsNotRegression(t *testing.T) {
	base := Result{Experiment: "e"}
	cur := Result{Experiment: "e", Metrics: []Metric{metric("fresh", 1, LowerIsBetter, 0.01)}}
	deltas, regressed := Compare(base, cur)
	if regressed {
		t.Fatal("new metric regressed")
	}
	if len(deltas) != 1 || deltas[0].Status != StatusNew {
		t.Fatalf("deltas = %+v", deltas)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := Result{Experiment: "e", Metrics: []Metric{metric("allocs", 0, LowerIsBetter, 0.5)}}
	cur := Result{Experiment: "e", Metrics: []Metric{metric("allocs", 0.3, LowerIsBetter, 0.5)}}
	if _, regressed := Compare(base, cur); regressed {
		t.Fatal("0 -> 0.3 with absolute allowance 0.5 regressed")
	}
	cur.Metrics[0].Value = 2
	if _, regressed := Compare(base, cur); !regressed {
		t.Fatal("0 -> 2 allocs/op passed the gate")
	}
}

func TestFormatDeltas(t *testing.T) {
	deltas := []Delta{
		{Name: "lat", Unit: "rows", Base: 1, Cur: 1.1, Change: 0.1, Status: StatusOK},
		{Name: "new", Cur: 3, Status: StatusNew},
		{Name: "inf", Base: 0, Cur: 1, Change: math.Inf(1), Status: StatusRegressed},
		{Name: "gone", Base: 4, Status: StatusGone},
	}
	out := FormatDeltas("exp", deltas)
	for _, want := range []string{"exp:", "lat (rows)", "+10.0%", "new", "inf", "gone"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestLoadRejectsUngatedMetrics: a metric without a direction or a
// positive tolerance cannot gate, so neither Load nor Write accepts it,
// and the error names the file and the metric.
func TestLoadRejectsUngatedMetrics(t *testing.T) {
	for _, m := range []Metric{
		{Name: "qps", Value: 1, Better: "info", Tol: 0.1},
		{Name: "qps", Value: 1, Better: "", Tol: 0.1},
		{Name: "qps", Value: 1, Better: LowerIsBetter},
		{Name: "qps", Value: 1, Better: HigherIsBetter, Tol: -0.1},
	} {
		dir := t.TempDir()
		r := Result{Experiment: "x", Metrics: []Metric{m}}
		if err := Write(dir, r); err == nil {
			t.Errorf("Write accepted %+v", m)
		}
		path := filepath.Join(dir, FileName("x"))
		r.Schema = SchemaVersion
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Load(path)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), `"qps"`) {
			t.Errorf("Load(%+v) err = %v, want one naming %s and the metric", m, err, path)
		}
	}
}

// TestCheckedInBaselines loads every BENCH_*.json at the repository root:
// each must pass Load's gate checks, hold no negative value, and carry no
// wall-clock unit (those are measured by bench/, not gated here).
func TestCheckedInBaselines(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json at the repository root")
	}
	wallClock := map[string]bool{"s": true, "ns/op": true, "ops/s": true, "%": true, "x": true}
	for _, path := range paths {
		r, err := Load(path)
		if err != nil {
			t.Error(err)
			continue
		}
		for _, m := range r.Metrics {
			if m.Value < 0 {
				t.Errorf("%s: metric %q is negative (%v)", path, m.Name, m.Value)
			}
			if wallClock[m.Unit] {
				t.Errorf("%s: metric %q has wall-clock unit %q", path, m.Name, m.Unit)
			}
		}
	}
}
