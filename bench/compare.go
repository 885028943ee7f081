package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// loadRuns reads one or more comma-separated results files and groups the
// end-to-end runs (traced runs carry no end-to-end claim) by workload.
func loadRuns(list string) (map[string][]result, error) {
	out := map[string][]result{}
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f struct {
			Runs []result `json:"runs"`
		}
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Runs {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

func values(runs []result, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// compare prints, per workload and end-to-end metric, both sets' medians,
// the change, and the bound BENCHMARK.json fixes, with a verdict:
//
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  a set's own quartile spread is wider than the bound, so a
//	            change of that size cannot be told from noise — unless every
//	            B run reads better than every A run
//	ok          otherwise
//
// It returns 1 when anything regressed or a run was incorrect.
func compare(root, listA, listB string) int {
	man, err := readManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadRuns(listA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadRuns(listB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-15s %-27s %12s %12s %8s %7s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "spread", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.name()], b[w.name()]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range append(append([]result(nil), ra...), rb...) {
			if !r.Correct {
				fmt.Printf("%-15s a run with seed %d was not correct: %s\n", w.name(), r.Seed, r.Error)
				code = 1
			}
		}
		for _, mm := range man.EndToEnd {
			va, vb := values(ra, mm.Name), values(rb, mm.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse > 0 means B is worse, as a share of A's median.
			worse := ratio(mb-ma, ma)
			if mm.Better == "higher" {
				worse = -worse
			}
			spread := max(iqrPct(va), iqrPct(vb)) / 100
			verdict := "ok"
			switch {
			case worse > mm.Bound:
				verdict = "regressed"
				code = 1
			case spread > mm.Bound && !allBetter(va, vb, mm.Better):
				verdict = "unresolved"
			}
			fmt.Printf("%-15s %-27s %12.6g %12.6g %+7.1f%% %6.0f%% %7.1f%%  %s\n",
				w.name(), mm.Name, ma, mb, 100*ratio(mb-ma, ma), 100*mm.Bound, 100*spread, verdict)
		}
	}
	return code
}

// allBetter reports that every B value beats every A value.
func allBetter(va, vb []float64, better string) bool {
	sa, sb := sortedCopy(va), sortedCopy(vb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
