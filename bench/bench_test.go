package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestQuickRun drives the whole harness in -quick mode with the traced
// ladder on, and checks the benchmark's own contract: every name in
// BENCHMARK.json printed exactly once per workload, no failed operation,
// and workloads that really isolate the daemon they claim to.
//
//	go test -C bench            # about a minute
//	go test -C bench -short     # skipped
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots both daemons four times; skipped under -short")
	}
	man, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results.json")
	cmd := exec.Command("go", "run", ".", "-quick", "-trace", "1", "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench -quick: %v\n%s", err, stdout)
	}

	// Printed rows, per workload.
	row := regexp.MustCompile(`^   (\S+)\s+(\S+) (\S+)$`)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	printed := map[string]map[string]int{}
	cur := ""
	for _, line := range strings.Split(string(stdout), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			cur, _, _ = strings.Cut(rest, " ")
			printed[cur] = map[string]int{}
			continue
		}
		if m := row.FindStringSubmatch(line); m != nil && cur != "" {
			if !name.MatchString(m[1]) {
				t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", cur, m[1])
			}
			printed[cur][m[1]]++
		}
	}
	if len(printed) != len(workloads) {
		t.Fatalf("printed %d workloads, want %d", len(printed), len(workloads))
	}
	for _, w := range workloads {
		for _, mm := range append(append([]manifestMetric(nil), man.EndToEnd...), man.PerLayer...) {
			if n := printed[w.name()][mm.Name]; n != 1 {
				t.Errorf("%s: %s printed %d times, want once", w.name(), mm.Name, n)
			}
		}
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Runs []result `json:"runs"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if !r.Correct || r.Failed != 0 || r.Metrics["client.fail_ratio"].Value != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d: %s", r.Workload, r.Correct, r.Failed, r.Attempted, r.Error)
		}
		total := r.Metrics["cpu_us_per_op"].Value
		switch r.Workload {
		case "predict_hot":
			if gd := r.Metrics["galleryd.cpu_us_per_op"].Value; gd >= 0.02*total {
				t.Errorf("predict_hot: galleryd burns %.1f of %.1f us/op; the workload does not isolate the serving tier", gd, total)
			}
		case "registry_write":
			if gs := r.Metrics["galleryserve.cpu_us_per_op"].Value; gs >= 0.02*total {
				t.Errorf("registry_write: galleryserve burns %.1f of %.1f us/op; the workload does not isolate the registry", gs, total)
			}
		}
	}
}
