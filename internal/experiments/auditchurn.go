package experiments

import (
	"fmt"
	"strings"
	"time"

	"gallery/internal/benchfmt"
	"gallery/internal/blobstore"
	"gallery/internal/clock"
	"gallery/internal/core"
	"gallery/internal/forecast"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// Experiment E20 — audit trail growth under lifecycle churn (extension of
// the paper's §3 metadata management). Two instances of one model are
// promoted back and forth for many rounds — the worst case for an
// append-only trail, since every flip writes promotion events for both the
// winner and the loser's shared model timeline. With per-entity retention
// (core.Options.AuditKeep) the trail must stay bounded near
// keep × live-entities while the pruned counter absorbs the rest; an
// unbounded trail here is the failure the retention policy exists to
// prevent.

// AuditChurnSample is the trail size observed after one measured round.
type AuditChurnSample struct {
	Round int
	Len   int // events in the audit_events table
}

// AuditChurnResult is the experiment outcome.
type AuditChurnResult struct {
	Rounds   int
	Keep     int // per-entity retention bound
	Recorded int // events ever written (incl. later-pruned ones)
	Pruned   int // events removed by retention
	PeakLen  int
	FinalLen int
	Samples  []AuditChurnSample
}

// AuditChurn runs rounds of promote/deprecate churn over two instances
// with a small per-entity retention bound and reports trail growth.
func AuditChurn(rounds, keep int) (*AuditChurnResult, error) {
	clk := clock.NewMock(epoch)
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{
		Clock:     clk,
		UUIDs:     uuid.NewSeeded(20),
		AuditKeep: keep,
	})
	if err != nil {
		return nil, err
	}

	m, err := reg.RegisterModel(core.ModelSpec{
		BaseVersionID: "churn_demand", Project: "marketplace", Name: "churner",
	})
	if err != nil {
		return nil, err
	}
	blob, err := forecast.Encode(&forecast.Heuristic{K: 1})
	if err != nil {
		return nil, err
	}
	a, err := reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, Name: "churner", City: "sf"}, blob)
	if err != nil {
		return nil, err
	}
	b, err := reg.UploadInstance(core.InstanceSpec{ModelID: m.ID, Name: "churner", City: "sf"}, blob)
	if err != nil {
		return nil, err
	}

	res := &AuditChurnResult{Rounds: rounds, Keep: keep}
	res.Recorded = reg.Audit().Len() // register + uploads + auto-promotes
	sampleEvery := rounds / 8
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	for r := 1; r <= rounds; r++ {
		// B is production after its upload (even rounds thereafter), so
		// odd rounds promote A and even rounds promote B — every round is
		// a genuine pointer flip that lands audit events.
		target := a.ID
		if r%2 == 0 {
			target = b.ID
		}
		if err := reg.PromoteInstance(target); err != nil {
			return nil, err
		}
		res.Recorded++
		clk.Advance(time.Second) // distinct timestamps keep the timeline honest
		n := reg.Audit().Len()
		if n > res.PeakLen {
			res.PeakLen = n
		}
		if r%sampleEvery == 0 || r == rounds {
			res.Samples = append(res.Samples, AuditChurnSample{Round: r, Len: n})
		}
	}
	res.FinalLen = reg.Audit().Len()
	res.Pruned = res.Recorded - res.FinalLen
	return res, nil
}

// BenchMetrics emits BENCH_auditchurn.json metrics. The trail-size
// numbers are fully deterministic (seeded clock and IDs), so they gate
// with a tight tolerance; recorded and pruned totals are only printed.
func (r *AuditChurnResult) BenchMetrics() []benchfmt.Metric {
	bounded := 0.0
	if r.Bounded() {
		bounded = 1
	}
	return []benchfmt.Metric{
		{Name: "peak_trail_len", Unit: "events", Value: float64(r.PeakLen), Better: benchfmt.LowerIsBetter, Tol: 0.01},
		{Name: "final_trail_len", Unit: "events", Value: float64(r.FinalLen), Better: benchfmt.LowerIsBetter, Tol: 0.01},
		{Name: "bounded", Value: bounded, Better: benchfmt.HigherIsBetter, Tol: 0.01},
	}
}

// Bounded reports whether the trail stayed within the retention envelope:
// keep events for each churned instance plus the model's own constant-size
// history.
func (r *AuditChurnResult) Bounded() bool {
	return r.PeakLen <= 2*r.Keep+8
}

// Format renders the growth curve as paper-style rows.
func (r *AuditChurnResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit trail under promotion churn (%d rounds, keep=%d per entity):\n", r.Rounds, r.Keep)
	fmt.Fprintf(&b, "%-8s %12s\n", "round", "trail events")
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "%-8d %12d\n", s.Round, s.Len)
	}
	fmt.Fprintf(&b, "recorded %d, pruned %d, peak %d, final %d (bounded=%v)\n",
		r.Recorded, r.Pruned, r.PeakLen, r.FinalLen, r.Bounded())
	return b.String()
}
