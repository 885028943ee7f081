package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gallery/internal/benchfmt"
	"gallery/internal/relstore"
)

// Experiment E21 — relstore query-planner hot paths. The paper's model
// search ran over cross-DC MySQL at million-instance scale (§3.5, §4);
// our substitute must keep the same query shapes index-driven. This
// experiment measures the planner's load-bearing paths directly against
// a registry-shaped table: "newest instances after T" (an index-driven
// range scan whose column is also the ORDER BY column), a greater-than
// scan that must seek past a huge equal-value run, the paper's Listing 5
// shape "this city's instances under a mape, newest first" streamed from
// the (city, created) composite index, and the full-scan + sort
// reference. It reports rows examined, not time: that is what the planner
// decides, and it is exact on any machine. Every arm cross-checks its rows
// against a forced full scan, and SelectFunc's rows, order and Explain
// against SelectExplain's, so a planner or visitor bug fails the
// experiment rather than skewing it.

// RelQueryCase is one measured query shape.
type RelQueryCase struct {
	Name    string
	Scanned int  // rows/postings the store examined (relstore Explain)
	Matched int  // rows matching before offset/limit
	Rows    int  // rows returned
	Ordered bool // order streamed from an index, no post-scan sort
	// Candidates counts the rows the constraints match with no limit: what
	// an index on every constrained column would have to read.
	Candidates int
}

// RelQueryResult is the experiment outcome.
type RelQueryResult struct {
	TableRows int
	DupRun    int // size of the duplicate mape run the OpGt seek must skip
	Cases     []RelQueryCase
}

// relQuerySchema is the registry-shaped benchmark table.
func relQuerySchema() relstore.Schema {
	return relstore.Schema{
		Table: "instances",
		Columns: []relstore.Column{
			{Name: "id", Kind: relstore.KindString},
			{Name: "city", Kind: relstore.KindString, Nullable: true},
			{Name: "created", Kind: relstore.KindTime},
			{Name: "mape", Kind: relstore.KindFloat},
		},
		Key:     "id",
		Indexes: []string{"city", "created", "mape", "city,created"},
	}
}

// compositeCase is the query streamed from the composite index; its scan
// must stay within twice its candidates.
const compositeCase = "city_mape_newest_desc"

// RelQuery builds an n-row table and plans each query shape against it.
func RelQuery(n int) (*RelQueryResult, error) {
	s := relstore.NewMemory()
	if err := s.CreateTable(relQuerySchema()); err != nil {
		return nil, err
	}
	cities := []string{
		"sf", "nyc", "la", "chicago", "london", "paris", "tokyo", "sydney",
		"berlin", "madrid", "rome", "dublin", "oslo", "lima", "cairo", "delhi",
	}
	dupRun := 0
	for i := 0; i < n; i++ {
		// Half the rows share one exact mape value: the worst case for a
		// greater-than index scan, which must not crawl the equal run.
		mape := 0.5
		if i%2 == 1 {
			mape = 0.5 + float64(i%997)/2000 + 0.001
		} else {
			dupRun++
		}
		row := relstore.Row{
			"id":      relstore.String(fmt.Sprintf("i%06d", i)),
			"city":    relstore.String(cities[i%len(cities)]),
			"created": relstore.Time(epoch.Add(time.Duration(i) * time.Second)),
			"mape":    relstore.Float(mape),
		}
		if err := s.Insert("instances", row); err != nil {
			return nil, err
		}
	}

	res := &RelQueryResult{TableRows: n, DupRun: dupRun}
	cutoff := epoch.Add(time.Duration(n-200) * time.Second)
	queries := []struct {
		name string
		q    relstore.Query
	}{
		// ORDER BY shares the index column that drives the scan. The
		// planner must stream the index (desc) and stop at the limit,
		// not sort every match.
		{"newest_after_cutoff_desc", relstore.Query{
			Table:   "instances",
			Where:   []relstore.Constraint{{Field: "created", Op: relstore.OpGt, Value: relstore.Time(cutoff)}},
			OrderBy: "created", Desc: true, Limit: 50,
		}},
		// Same shape ascending, with paging.
		{"after_cutoff_asc_paged", relstore.Query{
			Table:   "instances",
			Where:   []relstore.Constraint{{Field: "created", Op: relstore.OpGe, Value: relstore.Time(cutoff)}},
			OrderBy: "created", Limit: 50, Offset: 25,
		}},
		// Greater-than over a column where half the table shares the
		// boundary value: the scan must seek past the equal run.
		{"gt_over_dup_run", relstore.Query{
			Table: "instances",
			Where: []relstore.Constraint{{Field: "mape", Op: relstore.OpGt, Value: relstore.Float(0.5)}},
			Limit: 25,
		}},
		// Equality on city, ORDER BY created: the (city, created) index
		// streams it, where the city index alone sorted all of sf's 1,250
		// rows (the case keeps its name from then).
		{"eq_city_sorted", relstore.Query{
			Table:   "instances",
			Where:   []relstore.Constraint{{Field: "city", Op: relstore.OpEq, Value: relstore.String("sf")}},
			OrderBy: "created", Desc: true, Limit: 20,
		}},
		// Listing 5's shape: a city's instances under a mape, newest first.
		// (city, created) streams the city newest first and the mape
		// filter stops it at the fifth match; about a tenth of nyc passes.
		{compositeCase, relstore.Query{
			Table: "instances",
			Where: []relstore.Constraint{
				{Field: "city", Op: relstore.OpEq, Value: relstore.String("nyc")},
				{Field: "mape", Op: relstore.OpLe, Value: relstore.Float(0.55)},
			},
			OrderBy: "created", Desc: true, Limit: 5,
		}},
		// Full scan + sort: what every query costs without the planner.
		{"forcescan_sort_reference", relstore.Query{
			Table:   "instances",
			OrderBy: "created", Desc: true, Limit: 50, ForceScan: true,
		}},
	}

	for _, qc := range queries {
		rows, ex, err := s.SelectExplain(qc.q)
		if err != nil {
			return nil, fmt.Errorf("relquery %s: %w", qc.name, err)
		}
		// The visitor the registry reads through must see what the copying
		// path returns: the same rows in the same order, the same plan.
		var visited []string
		vex, err := s.SelectFunc(context.Background(), qc.q, func(r relstore.Row) bool {
			visited = append(visited, r["id"].Str)
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("relquery %s: %w", qc.name, err)
		}
		if vex != ex || len(visited) != len(rows) {
			return nil, fmt.Errorf("relquery %s: SelectFunc saw %d rows %+v, SelectExplain returned %d %+v",
				qc.name, len(visited), vex, len(rows), ex)
		}
		for i, id := range visited {
			if id != rows[i]["id"].Str {
				return nil, fmt.Errorf("relquery %s: SelectFunc row %d is %s, SelectExplain's %s", qc.name, i, id, rows[i]["id"].Str)
			}
		}
		// Cross-check against a forced full scan: with an ORDER BY the row
		// ids must match in order; without one the result order is
		// unspecified, so check membership and count against the full
		// (unlimited) match set instead. A planner bug fails the
		// experiment rather than skewing it.
		forced := qc.q
		forced.ForceScan = true
		if qc.q.OrderBy != "" {
			frows, _, err := s.SelectExplain(forced)
			if err != nil {
				return nil, err
			}
			if len(rows) != len(frows) {
				return nil, fmt.Errorf("relquery %s: planner returned %d rows, full scan %d", qc.name, len(rows), len(frows))
			}
			for i := range rows {
				if rows[i]["id"].Str != frows[i]["id"].Str {
					return nil, fmt.Errorf("relquery %s: row %d differs from full scan (%s vs %s)",
						qc.name, i, rows[i]["id"].Str, frows[i]["id"].Str)
				}
			}
		} else {
			forced.Limit, forced.Offset = 0, 0
			frows, _, err := s.SelectExplain(forced)
			if err != nil {
				return nil, err
			}
			want := len(frows)
			if qc.q.Limit > 0 && qc.q.Limit < want {
				want = qc.q.Limit
			}
			if len(rows) != want {
				return nil, fmt.Errorf("relquery %s: planner returned %d rows, want %d", qc.name, len(rows), want)
			}
			ids := make(map[string]bool, len(frows))
			for _, r := range frows {
				ids[r["id"].Str] = true
			}
			for _, r := range rows {
				if !ids[r["id"].Str] {
					return nil, fmt.Errorf("relquery %s: row %s not in full-scan match set", qc.name, r["id"].Str)
				}
			}
		}

		all := qc.q
		all.ForceScan, all.Limit, all.Offset = true, 0, 0
		aex, err := s.SelectFunc(context.Background(), all, func(relstore.Row) bool { return true })
		if err != nil {
			return nil, err
		}
		if qc.name == compositeCase && (ex.Index != "city,created" || ex.Scanned > 2*aex.Matched) {
			return nil, fmt.Errorf("relquery %s: read through %q scanning %d rows for %d candidates, want city,created within 2x",
				qc.name, ex.Index, ex.Scanned, aex.Matched)
		}

		res.Cases = append(res.Cases, RelQueryCase{
			Name:       qc.name,
			Scanned:    ex.Scanned,
			Matched:    ex.Matched,
			Rows:       len(rows),
			Ordered:    ex.Ordered,
			Candidates: aex.Matched,
		})
	}
	return res, nil
}

// Case returns the named case, or nil.
func (r *RelQueryResult) Case(name string) *RelQueryCase {
	for i := range r.Cases {
		if r.Cases[i].Name == name {
			return &r.Cases[i]
		}
	}
	return nil
}

// Format renders the planner table as paper-style rows.
func (r *RelQueryResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "relstore query planner over %d rows (dup run %d):\n", r.TableRows, r.DupRun)
	fmt.Fprintf(&b, "  %-28s %9s %9s %10s %6s %8s\n",
		"query", "scanned", "matched", "candidates", "rows", "ordered")
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "  %-28s %9d %9d %10d %6d %8v\n",
			c.Name, c.Scanned, c.Matched, c.Candidates, c.Rows, c.Ordered)
	}
	if stream, ref := r.Case("newest_after_cutoff_desc"), r.Case("forcescan_sort_reference"); stream != nil && ref != nil {
		fmt.Fprintf(&b, "  streamed vs full-scan+sort: %d vs %d rows scanned for the same %d rows\n",
			stream.Scanned, ref.Scanned, stream.Rows)
	}
	return b.String()
}

// BenchMetrics emits the experiment's BENCH_relquery.json metrics: the
// deterministic scanned counts and planner verdicts. Returned rows and
// candidates are cross-checked above and printed.
func (r *RelQueryResult) BenchMetrics() []benchfmt.Metric {
	var ms []benchfmt.Metric
	for _, c := range r.Cases {
		ms = append(ms,
			benchfmt.Metric{Name: c.Name + "_rows_scanned", Unit: "rows", Value: float64(c.Scanned), Better: benchfmt.LowerIsBetter, Tol: 0.01},
		)
		ordered := 0.0
		if c.Ordered {
			ordered = 1
		}
		// Gate the planner verdict on the paths that must stream.
		switch c.Name {
		case "newest_after_cutoff_desc", "after_cutoff_asc_paged", "eq_city_sorted", compositeCase:
			ms = append(ms, benchfmt.Metric{Name: c.Name + "_ordered", Value: ordered, Better: benchfmt.HigherIsBetter, Tol: 0.01})
		}
	}
	return ms
}
