package profile

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// IngestRequest is the wire form of a cross-process summary shipment:
// galleryserve POSTs this to galleryd's /v1/debug/profile so one fleet
// view covers both tiers.
type IngestRequest struct {
	Process   string    `json:"process"`
	Summaries []Summary `json:"summaries"`
}

// View is the body of GET /v1/debug/profile: the merged per-process
// profile picture.
type View struct {
	Generated time.Time     `json:"generated"`
	Merge     string        `json:"merge,omitempty"` // window applied, "" = all retained
	Processes []ProcessView `json:"processes"`
}

// ProcessView is one process's slice of a View: how many windows were
// folded per kind and the merged top-N summary of each.
type ProcessView struct {
	Process string             `json:"process"`
	Windows map[string]int     `json:"windows,omitempty"`
	Merged  map[string]Summary `json:"merged,omitempty"`
}

// maxFleetProcesses bounds distinct processes a Fleet retains, so a
// misconfigured (or hostile) shipper cycling process names cannot grow
// memory without bound.
const maxFleetProcesses = 64

// Fleet aggregates summaries across processes on galleryd: the local
// profiler exports into it directly (Ingest is its Config.Exporter) and
// gateway shipments land in it through the ingest endpoint.
type Fleet struct {
	mu    sync.Mutex
	keep  int
	rings map[string]*Ring

	dropped atomic.Uint64 // shipments refused at the process bound
}

// NewFleet builds a Fleet keeping up to keep summaries per kind per
// process (0 = DefaultKeep).
func NewFleet(keep int) *Fleet {
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Fleet{keep: keep, rings: make(map[string]*Ring)}
}

// Ingest adds one process's summaries. Shipments for a new process past
// the process bound are dropped (counted).
func (f *Fleet) Ingest(process string, summaries []Summary) {
	if process == "" || len(summaries) == 0 {
		return
	}
	f.mu.Lock()
	r, ok := f.rings[process]
	if !ok {
		if len(f.rings) >= maxFleetProcesses {
			f.mu.Unlock()
			f.dropped.Add(1)
			return
		}
		r = NewRing(f.keep)
		f.rings[process] = r
	}
	f.mu.Unlock()
	for _, s := range summaries {
		r.Add(s)
	}
}

// Dropped reports shipments refused at the process bound.
func (f *Fleet) Dropped() uint64 { return f.dropped.Load() }

// Ring returns one process's ring, or nil when unseen.
func (f *Fleet) Ring(process string) *Ring {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rings[process]
}

// Snapshot folds the fleet into a View. merge > 0 restricts each
// process's fold to summaries ending within the last merge of now.
func (f *Fleet) Snapshot(merge time.Duration, topN int, now time.Time) View {
	f.mu.Lock()
	names := make([]string, 0, len(f.rings))
	rings := make([]*Ring, 0, len(f.rings))
	for name, r := range f.rings {
		names = append(names, name)
		rings = append(rings, r)
	}
	f.mu.Unlock()
	v := View{Generated: now}
	if merge > 0 {
		v.Merge = merge.String()
	}
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return names[order[i]] < names[order[j]] })
	for _, i := range order {
		v.Processes = append(v.Processes, rings[i].View(names[i], merge, topN, now))
	}
	return v
}

// ParseViewQuery interprets the GET /v1/debug/profile query parameters
// shared by both daemons: merge (a duration like "1h" restricting the
// fold to recent windows; 0/absent folds everything retained) and n
// (top-N functions per summary, default DefaultTopN).
func ParseViewQuery(q url.Values) (merge time.Duration, topN int, err error) {
	topN = DefaultTopN
	if v := q.Get("merge"); v != "" {
		merge, err = time.ParseDuration(v)
		if err != nil || merge < 0 {
			return 0, 0, fmt.Errorf("bad merge window %q", v)
		}
	}
	if v := q.Get("n"); v != "" {
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n <= 0 {
			return 0, 0, fmt.Errorf("bad n %q", v)
		}
		topN = n
	}
	return merge, topN, nil
}
