package trace

import (
	"sort"
	"sync"
	"time"
)

// Trace is one completed request: the bag of spans sharing a trace ID.
// Spans from the remote process (ingested after the fact) and from late
// async work (rule evaluation finishing after the response) are appended
// to the same entry, so the tree fills in as stragglers arrive.
type Trace struct {
	spans []SpanData // guarded by the owning Store's mutex
}

// Store holds completed traces in a bounded ring buffer (oldest evicted
// first) with a by-ID index. One Store serves both locally-finished traces
// and spans ingested from the peer process. Spans still in flight live on
// their local root span, not here.
type Store struct {
	mu      sync.Mutex
	cap     int
	ring    []*Trace // completed, oldest first
	byID    map[string]*Trace
	evicted uint64
	dropped uint64 // traces recorded but not kept (tail filter)
}

// NewStore builds a Store retaining at most capacity completed traces.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 256
	}
	return &Store{cap: capacity, byID: make(map[string]*Trace)}
}

// add joins a span that ended after its kept local root to that trace. A
// trace already evicted gains nothing: the span is discarded with it.
func (s *Store) add(data SpanData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.byID[data.TraceID]; ok {
		t.spans = append(t.spans, data)
	}
}

// drop counts a trace its local root recorded but did not keep.
func (s *Store) drop() {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
}

// complete enters a kept trace's local spans into the ring. The caller
// keeps spans for the exporter, so the store appends only past its end.
func (s *Store) complete(spans []SpanData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.byID[spans[0].TraceID]; ok {
		// The peer's half arrived first (or a prior local root for the
		// same trace ID); merge instead of double-storing.
		t.spans = append(t.spans, spans...)
		return
	}
	s.insertLocked(&Trace{spans: spans[:len(spans):len(spans)]})
}

// Ingest merges spans shipped from another process. Traces already
// completed locally gain the remote spans; unknown trace IDs become new
// completed entries (the remote kept a trace that never touched this
// process's handlers).
func (s *Store) Ingest(spans []SpanData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range spans {
		if sp.TraceID == "" || sp.SpanID == "" {
			continue
		}
		if t, ok := s.byID[sp.TraceID]; ok {
			t.spans = append(t.spans, sp)
			continue
		}
		s.insertLocked(&Trace{spans: []SpanData{sp}})
	}
}

// insertLocked appends a completed trace, evicting the oldest past cap.
func (s *Store) insertLocked(t *Trace) {
	s.ring = append(s.ring, t)
	s.byID[t.spans[0].TraceID] = t
	for len(s.ring) > s.cap {
		old := s.ring[0]
		s.ring = s.ring[1:]
		delete(s.byID, old.spans[0].TraceID)
		s.evicted++
	}
}

// Stats reports buffer occupancy for the debug endpoint.
type Stats struct {
	Completed int    `json:"completed"`
	Capacity  int    `json:"capacity"`
	Evicted   uint64 `json:"evicted"`
	Dropped   uint64 `json:"dropped"`
}

// Stats snapshots buffer counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Completed: len(s.ring),
		Capacity:  s.cap,
		Evicted:   s.evicted,
		Dropped:   s.dropped,
	}
}

// Summary is one line of the trace list: enough to decide which trace to
// fetch in full.
type Summary struct {
	TraceID  string    `json:"trace_id"`
	Root     string    `json:"root"`
	Services []string  `json:"services,omitempty"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"duration_ms"`
	Spans    int       `json:"spans"`
	Errors   int       `json:"errors"`
}

// Summaries lists completed traces, newest first, at most limit (≤0 means
// all).
func (s *Store) Summaries(limit int) []Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ring)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Summary, 0, limit)
	for i := n - 1; i >= 0 && len(out) < limit; i-- {
		out = append(out, summarize(s.ring[i].spans))
	}
	return out
}

func summarize(spans []SpanData) Summary {
	sum := Summary{Spans: len(spans)}
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		ids[sp.SpanID] = true
	}
	var (
		start     time.Time
		end       time.Time
		rootStart time.Time
		svcs      []string
	)
	seen := map[string]bool{}
	for _, sp := range spans {
		sum.TraceID = sp.TraceID
		if sp.Error != "" {
			sum.Errors++
		}
		if start.IsZero() || sp.Start.Before(start) {
			start = sp.Start
		}
		e := sp.Start.Add(time.Duration(sp.Duration * float64(time.Millisecond)))
		if e.After(end) {
			end = e
		}
		if sp.Service != "" && !seen[sp.Service] {
			seen[sp.Service] = true
			svcs = append(svcs, sp.Service)
		}
		// Root label: the earliest-started span whose parent isn't in the
		// set (the true root, or the oldest orphan if the root was lost).
		if sp.ParentID == "" || !ids[sp.ParentID] {
			if rootStart.IsZero() || sp.Start.Before(rootStart) {
				rootStart = sp.Start
				sum.Root = sp.Name
			}
		}
	}
	sort.Strings(svcs)
	sum.Services = svcs
	sum.Start = start
	sum.Duration = float64(end.Sub(start).Microseconds()) / 1000
	return sum
}

// Node is one span in the rendered tree. SelfMs is the span's duration
// minus its direct children's (clamped at zero): the time attributable to
// the span's own work rather than anything it called.
type Node struct {
	Span     SpanData `json:"span"`
	SelfMs   float64  `json:"self_ms"`
	Children []*Node  `json:"children,omitempty"`
}

// Detail is the full rendering of one trace: the span tree plus the
// flat summary line.
type Detail struct {
	Summary Summary `json:"summary"`
	Roots   []*Node `json:"roots"`
}

// Get renders one completed trace as a span tree, or ok=false if the ID
// isn't (or is no longer) in the buffer.
func (s *Store) Get(traceID string) (Detail, bool) {
	s.mu.Lock()
	t, ok := s.byID[traceID]
	var spans []SpanData
	if ok {
		spans = make([]SpanData, len(t.spans))
		copy(spans, t.spans)
	}
	s.mu.Unlock()
	if !ok {
		return Detail{}, false
	}
	return Detail{Summary: summarize(spans), Roots: BuildTree(spans)}, true
}

// BuildTree assembles spans into parent/child trees. Spans whose parent
// is absent from the set (the process root, or an orphan whose parent was
// dropped) become roots. Siblings sort by start time.
func BuildTree(spans []SpanData) []*Node {
	nodes := make(map[string]*Node, len(spans))
	for _, sp := range spans {
		nodes[sp.SpanID] = &Node{Span: sp}
	}
	var roots []*Node
	for _, n := range nodes {
		if p, ok := nodes[n.Span.ParentID]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var finish func(n *Node)
	finish = func(n *Node) {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Span.Start.Before(n.Children[j].Span.Start)
		})
		childMs := 0.0
		for _, c := range n.Children {
			childMs += c.Span.Duration
			finish(c)
		}
		n.SelfMs = n.Span.Duration - childMs
		if n.SelfMs < 0 {
			n.SelfMs = 0
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		return roots[i].Span.Start.Before(roots[j].Span.Start)
	})
	for _, r := range roots {
		finish(r)
	}
	return roots
}
