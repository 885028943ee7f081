package profile

import (
	"sort"
	"sync"
	"time"
)

// Ring retains the most recent summaries per kind, bounded. It is the
// profiler's memory: the debug endpoint reads merged views from it and
// the incident recorder embeds its tail in bundles.
type Ring struct {
	mu     sync.Mutex
	byKind map[string][]Summary
}

// NewRing builds a ring keeping up to 32 summaries per kind.
func NewRing() *Ring {
	return &Ring{byKind: make(map[string][]Summary)}
}

// Add appends one summary, evicting the oldest of its kind past the
// bound.
func (r *Ring) Add(s Summary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := append(r.byKind[s.Kind], s)
	if len(ss) > ringKeep {
		// Shift in place so the backing array stays bounded.
		n := copy(ss, ss[len(ss)-ringKeep:])
		ss = ss[:n]
	}
	r.byKind[s.Kind] = ss
}

// Recent returns up to limit summaries of one kind, newest first.
// limit <= 0 means all retained.
func (r *Ring) Recent(kind string, limit int) []Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := r.byKind[kind]
	if limit <= 0 || limit > len(ss) {
		limit = len(ss)
	}
	out := make([]Summary, 0, limit)
	for i := len(ss) - 1; i >= len(ss)-limit; i-- {
		out = append(out, ss[i])
	}
	return out
}

// Kinds lists the kinds with at least one retained summary, sorted.
func (r *Ring) Kinds() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byKind))
	for k, ss := range r.byKind {
		if len(ss) > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// History returns up to limit retained summaries across every kind,
// newest first — the pre-trigger tail an incident bundle embeds.
func (r *Ring) History(limit int) []Summary {
	r.mu.Lock()
	var all []Summary
	for _, ss := range r.byKind {
		all = append(all, ss...)
	}
	r.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool { return all[i].End.After(all[j].End) })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

// View folds the ring into one process's merged view. merge > 0
// restricts the fold to summaries ending within the last merge of now;
// 0 merges everything retained.
func (r *Ring) View(process string, merge time.Duration, topN int, now time.Time) ProcessView {
	pv := ProcessView{
		Process: process,
		Windows: make(map[string]int),
		Merged:  make(map[string]Summary),
	}
	cutoff := time.Time{}
	if merge > 0 {
		cutoff = now.Add(-merge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for kind, ss := range r.byKind {
		in := make([]Summary, 0, len(ss))
		for _, s := range ss {
			if cutoff.IsZero() || !s.End.Before(cutoff) {
				in = append(in, s)
			}
		}
		if len(in) == 0 {
			continue
		}
		pv.Windows[kind] = len(in)
		pv.Merged[kind] = Merge(in, topN)
	}
	return pv
}

// Merge folds same-kind summaries across windows: per-function self and
// cum values sum, totals sum, and the result re-ranks to top-N with
// recomputed shares. Inputs are already top-N truncated, so merged
// shares are conservative — a function's tail contributions outside any
// window's top-N are lost to it but stay in Total. An empty input yields
// a zero Summary.
func Merge(ss []Summary, topN int) Summary {
	if len(ss) == 0 {
		return Summary{}
	}
	if topN <= 0 {
		topN = DefaultTopN
	}
	out := Summary{Kind: ss[0].Kind, Unit: ss[0].Unit, Start: ss[0].Start, End: ss[0].End}
	type agg struct{ self, cum int64 }
	byFunc := make(map[string]*agg)
	for _, s := range ss {
		if s.Start.Before(out.Start) {
			out.Start = s.Start
		}
		if s.End.After(out.End) {
			out.End = s.End
		}
		out.Total += s.Total
		out.Samples += s.Samples
		out.DurationNS += s.DurationNS
		for _, fn := range s.Top {
			a, ok := byFunc[fn.Name]
			if !ok {
				a = &agg{}
				byFunc[fn.Name] = a
			}
			a.self += fn.Self
			a.cum += fn.Cum
		}
	}
	top := make([]FuncStat, 0, len(byFunc))
	for name, a := range byFunc {
		top = append(top, FuncStat{Name: name, Self: a.self, Cum: a.cum})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Self != top[j].Self {
			return top[i].Self > top[j].Self
		}
		if top[i].Cum != top[j].Cum {
			return top[i].Cum > top[j].Cum
		}
		return top[i].Name < top[j].Name
	})
	if len(top) > topN {
		top = top[:topN]
	}
	if out.Total > 0 {
		for i := range top {
			top[i].SelfShare = float64(top[i].Self) / float64(out.Total)
			top[i].CumShare = float64(top[i].Cum) / float64(out.Total)
		}
	}
	out.Top = top
	return out
}
