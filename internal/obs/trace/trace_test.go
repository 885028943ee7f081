package trace

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafeAndFree(t *testing.T) {
	ctx, span := Start(context.Background(), "anything")
	if span != nil {
		t.Fatal("Start with no parent span must return nil")
	}
	if ctx != context.Background() {
		t.Fatal("Start with no parent must return the context unchanged")
	}
	// Every method must no-op on nil.
	span.Annotate("k", "v")
	span.AnnotateInt("k", 1)
	span.AnnotateDuration("k", time.Second)
	span.SetError(errors.New("x"))
	span.Fail("x")
	span.Rename("y")
	span.End()
	span.EndErr(errors.New("x"))
	if span.TraceIDString() != "" || span.SpanIDString() != "" || span.Traceparent() != "" {
		t.Fatal("nil span must render empty IDs")
	}

	var nilTracer *Tracer
	if _, s := nilTracer.StartRoot(context.Background(), "r", ""); s != nil {
		t.Fatal("nil tracer must not start spans")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Options{Service: "test", Sampler: Always()})
	_, span := tr.StartRoot(context.Background(), "root", "")
	if span == nil {
		t.Fatal("always sampler must start a root span")
	}
	h := span.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q has wrong shape", h)
	}
	tid, sid, sampled, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if !sampled {
		t.Fatal("traceparent must carry the sampled flag")
	}
	if tid.String() != span.TraceIDString() || sid.String() != span.SpanIDString() {
		t.Fatalf("round trip changed IDs: %s/%s vs %s/%s",
			tid, sid, span.TraceIDString(), span.SpanIDString())
	}
	span.End()
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	if _, _, _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	bad := []string{
		"",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",    // truncated
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // unknown version
		"00-0123456789abcdef0123456789abcdeZ-0123456789abcdef-01", // bad hex
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span id
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0g", // bad flags
		"00x0123456789abcdef0123456789abcdefx0123456789abcdefx01", // bad separators
		valid + "-extra", // too long
	}
	for _, h := range bad {
		if _, _, _, err := ParseTraceparent(h); !errors.Is(err, ErrTraceparent) {
			t.Errorf("ParseTraceparent(%q) = %v, want ErrTraceparent", h, err)
		}
	}
	// Unsampled flag parses fine but reports sampled=false.
	if _, _, sampled, err := ParseTraceparent(valid[:53] + "00"); err != nil || sampled {
		t.Fatalf("unsampled header: sampled=%v err=%v", sampled, err)
	}
}

func TestParseSampler(t *testing.T) {
	for _, spec := range []string{"", "never", "off", "always", "0.25", "errslow:250ms"} {
		if _, err := ParseSampler(spec); err != nil {
			t.Errorf("ParseSampler(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"bogus", "-0.5", "1.5", "errslow:nope", "errslow:-1s"} {
		if _, err := ParseSampler(spec); !errors.Is(err, ErrSamplerSpec) {
			t.Errorf("ParseSampler(%q) = %v, want ErrSamplerSpec", spec, err)
		}
	}
	s, _ := ParseSampler("errslow:250ms")
	if s.Spec() != "errslow:250ms" {
		t.Errorf("Spec() = %q, want errslow:250ms", s.Spec())
	}
	if !s.Sample() {
		t.Error("errslow must record every request (head)")
	}
	if s.Keep(10*time.Millisecond, false) {
		t.Error("errslow must drop fast clean traces (tail)")
	}
	if !s.Keep(10*time.Millisecond, true) || !s.Keep(time.Second, false) {
		t.Error("errslow must keep errored and slow traces")
	}
	if n, _ := ParseSampler("never"); n.Sample() {
		t.Error("never must not sample")
	}
}

func TestChildSpansAndParentLinks(t *testing.T) {
	tr := New(Options{Service: "svc", Sampler: Always()})
	ctx, root := tr.StartRoot(context.Background(), "root", "")
	ctx2, child := Start(ctx, "child")
	_, grand := Start(ctx2, "grandchild")
	grand.End()
	child.End()
	root.End()

	d, ok := tr.Store().Get(root.TraceIDString())
	if !ok {
		t.Fatal("trace not in store after root End")
	}
	if d.Summary.Spans != 3 {
		t.Fatalf("got %d spans, want 3", d.Summary.Spans)
	}
	if len(d.Roots) != 1 || d.Roots[0].Span.Name != "root" {
		t.Fatalf("tree roots = %+v, want single root", d.Roots)
	}
	c := d.Roots[0].Children
	if len(c) != 1 || c[0].Span.Name != "child" {
		t.Fatalf("root children = %+v, want [child]", c)
	}
	if len(c[0].Children) != 1 || c[0].Children[0].Span.Name != "grandchild" {
		t.Fatalf("child children = %+v, want [grandchild]", c[0].Children)
	}
	if c[0].Span.ParentID != d.Roots[0].Span.SpanID {
		t.Fatal("child's parent_id must be the root's span_id")
	}
	for _, n := range []float64{d.Roots[0].SelfMs, c[0].SelfMs} {
		if n < 0 {
			t.Fatalf("self time %f must be clamped at zero", n)
		}
	}
}

func TestErrSlowTailFilter(t *testing.T) {
	tr := New(Options{Service: "svc", Sampler: ErrSlow(time.Hour)})

	// Fast, clean → recorded but not kept.
	_, fast := tr.StartRoot(context.Background(), "fast", "")
	if fast == nil {
		t.Fatal("errslow must record at head")
	}
	fast.End()
	if _, ok := tr.Store().Get(fast.TraceIDString()); ok {
		t.Fatal("fast clean trace must be dropped at tail")
	}

	// Root error → kept.
	_, bad := tr.StartRoot(context.Background(), "bad", "")
	bad.EndErr(errors.New("boom"))
	if _, ok := tr.Store().Get(bad.TraceIDString()); !ok {
		t.Fatal("errored trace must be kept")
	}

	// Clean root, failed child (error swallowed by a fallback) → kept:
	// the child's error reaches the tail decision through its root.
	ctx, root := tr.StartRoot(context.Background(), "root", "")
	_, child := Start(ctx, "child")
	child.EndErr(errors.New("inner"))
	root.End()
	if _, ok := tr.Store().Get(root.TraceIDString()); !ok {
		t.Fatal("trace with a failed child span must be kept")
	}
}

func TestRemoteParentBypassesTailFilter(t *testing.T) {
	up := New(Options{Service: "upstream", Sampler: Always()})
	_, remote := up.StartRoot(context.Background(), "caller", "")

	down := New(Options{Service: "downstream", Sampler: ErrSlow(time.Hour)})
	_, span := down.StartRoot(context.Background(), "handler", remote.Traceparent())
	if span == nil {
		t.Fatal("sampled traceparent must force a span")
	}
	if span.TraceIDString() != remote.TraceIDString() {
		t.Fatal("continued span must keep the caller's trace ID")
	}
	span.End()
	d, ok := down.Store().Get(remote.TraceIDString())
	if !ok {
		t.Fatal("remote-forced trace must bypass the tail filter")
	}
	if d.Roots[0].Span.ParentID != remote.SpanIDString() {
		t.Fatalf("handler parent = %s, want caller span %s",
			d.Roots[0].Span.ParentID, remote.SpanIDString())
	}
	remote.End()

	// An unsampled context (flags 00) must not force tracing: it falls
	// through to the local sampler, so a Never tracer starts nothing.
	unsampled := strings.TrimSuffix(remote.Traceparent(), "01") + "00"
	off := New(Options{Service: "downstream", Sampler: Never()})
	if _, s := off.StartRoot(context.Background(), "handler", unsampled); s != nil {
		t.Fatal("unsampled traceparent must fall through to the local sampler")
	}
}

// TestSampledFlagOnlyWhenKept: a traceparent carries the sampled flag only
// for a trace this process has already decided to keep — a sampler that
// keeps all it records, or a sampled caller — and every span of the trace
// sends the same flag. A callee handed a valid parent without the flag
// continues the trace under its own sampler: it keeps the trace ID and the
// parent, and its tail filter decides.
func TestSampledFlagOnlyWhenKept(t *testing.T) {
	for _, c := range []struct {
		sampler Sampler
		flag    string
	}{{Always(), "01"}, {probSampler{p: 1}, "01"}, {ErrSlow(0), "01"}, {ErrSlow(time.Hour), "00"}} {
		tr := New(Options{Service: "up", Sampler: c.sampler})
		ctx, root := tr.StartRoot(context.Background(), "root", "")
		_, child := Start(ctx, "child")
		for _, s := range []*Span{root, child} {
			if h := s.Traceparent(); !strings.HasSuffix(h, "-"+c.flag) {
				t.Errorf("sampler %s: traceparent %s, want flags %s", c.sampler.Spec(), h, c.flag)
			}
		}
		// The decision travels: a sampled caller makes the callee keep
		// and pass the flag on whatever its own sampler.
		down := New(Options{Service: "down", Sampler: ErrSlow(time.Hour)})
		_, callee := down.StartRoot(context.Background(), "handler", child.Traceparent())
		if h := callee.Traceparent(); !strings.HasSuffix(h, "-"+c.flag) {
			t.Errorf("sampler %s: callee's traceparent %s, want flags %s", c.sampler.Spec(), h, c.flag)
		}
		callee.End()
		if _, kept := down.Store().Get(root.TraceIDString()); kept != (c.flag == "01") {
			t.Errorf("sampler %s: fast callee kept its half: %v", c.sampler.Spec(), kept)
		}
		child.End()
		root.End()
	}

	up := New(Options{Service: "up", Sampler: ErrSlow(time.Hour)})
	_, caller := up.StartRoot(context.Background(), "caller", "")
	down := New(Options{Service: "down", Sampler: Always()})
	_, callee := down.StartRoot(context.Background(), "handler", caller.Traceparent())
	callee.End()
	d, ok := down.Store().Get(caller.TraceIDString())
	if !ok || d.Roots[0].Span.ParentID != caller.SpanIDString() {
		t.Fatalf("callee of an unflagged caller did not continue its trace under its own sampler: %v %+v", ok, d)
	}
	caller.End()
}

func TestNeverSamplerStartsNothing(t *testing.T) {
	tr := New(Options{Service: "svc"}) // default sampler: Never
	ctx, span := tr.StartRoot(context.Background(), "root", "")
	if span != nil {
		t.Fatal("never sampler must not start spans")
	}
	if _, c := Start(ctx, "child"); c != nil {
		t.Fatal("child of a nil root must be nil")
	}
	if got := tr.Store().Stats().Completed; got != 0 {
		t.Fatalf("store holds %d traces, want 0", got)
	}
}

// TestRingEvictionConcurrent hammers the store from many goroutines (run
// under -race) and checks the ring stays bounded and accounts for every
// eviction.
func TestRingEvictionConcurrent(t *testing.T) {
	const (
		workers   = 8
		perWorker = 50
		capacity  = 16
	)
	tr := New(Options{Service: "svc", Sampler: Always(), Capacity: capacity})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, root := tr.StartRoot(context.Background(), "root", "")
				_, child := Start(ctx, "child")
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	st := tr.Store().Stats()
	if st.Completed != capacity {
		t.Fatalf("ring holds %d traces, want capacity %d", st.Completed, capacity)
	}
	if st.Evicted != workers*perWorker-capacity {
		t.Fatalf("evicted = %d, want %d", st.Evicted, workers*perWorker-capacity)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0 under Always", st.Dropped)
	}
	// Every summarized trace must be fetchable and complete.
	for _, s := range tr.Store().Summaries(0) {
		d, ok := tr.Store().Get(s.TraceID)
		if !ok || d.Summary.Spans != 2 {
			t.Fatalf("trace %s: ok=%v spans=%d, want 2", s.TraceID, ok, d.Summary.Spans)
		}
	}
}

func TestIngestMergesRemoteSpans(t *testing.T) {
	tr := New(Options{Service: "galleryd", Sampler: Always()})
	_, root := tr.StartRoot(context.Background(), "server", "")
	tid := root.TraceIDString()
	root.End()

	// A peer process ships its half of the trace after ours completed.
	tr.Store().Ingest([]SpanData{{
		TraceID: tid,
		SpanID:  "aaaaaaaaaaaaaaaa",
		Name:    "gateway",
		Service: "galleryserve",
		Start:   time.Now().Add(-time.Millisecond),
	}})
	d, ok := tr.Store().Get(tid)
	if !ok {
		t.Fatal("trace lost after ingest")
	}
	if d.Summary.Spans != 2 {
		t.Fatalf("got %d spans after merge, want 2", d.Summary.Spans)
	}
	if len(d.Summary.Services) != 2 {
		t.Fatalf("services = %v, want both", d.Summary.Services)
	}
}

// TestLateSpansFollowTheirRoot: a span that ends after its local root
// shares its root's fate. A store that parks such a span by trace ID lets
// the late failed child of a dropped root make a later fast, clean root
// continuing the same traceparent keep a trace holding a span it never
// opened (galleryd's async rules.evaluate spans end after their root).
func TestLateSpansFollowTheirRoot(t *testing.T) {
	tr := New(Options{Service: "svc", Sampler: ErrSlow(time.Hour)})
	up := New(Options{Service: "up", Sampler: ErrSlow(time.Hour)})
	_, caller := up.StartRoot(context.Background(), "caller", "")
	parent := caller.Traceparent() // unflagged: the tail filter decides

	ctx, r1 := tr.StartRoot(context.Background(), "r1", parent)
	_, late := Start(ctx, "rules.evaluate")
	r1.End()
	late.EndErr(errors.New("late failure"))
	_, r2 := tr.StartRoot(context.Background(), "r2", parent)
	r2.End()
	if d, ok := tr.Store().Get(caller.TraceIDString()); ok {
		t.Fatalf("fast clean root kept a trace holding a dropped root's late span: %d spans", d.Summary.Spans)
	}
	if st := tr.Store().Stats(); st.Dropped != 2 || st.Completed != 0 {
		t.Fatalf("stats %+v, want both roots dropped and nothing buffered", st)
	}

	// A late child of a kept root joins its stored trace.
	ctx, kept := tr.StartRoot(context.Background(), "kept", "")
	_, child := Start(ctx, "child")
	kept.EndErr(errors.New("boom"))
	child.End()
	if d, ok := tr.Store().Get(kept.TraceIDString()); !ok || d.Summary.Spans != 2 {
		t.Fatalf("late child of a kept root: ok=%v %+v, want 2 spans", ok, d.Summary)
	}

	// A late child of an evicted trace creates no entry.
	small := New(Options{Service: "svc", Sampler: Always(), Capacity: 1})
	ctx, gone := small.StartRoot(context.Background(), "gone", "")
	_, orphan := Start(ctx, "orphan")
	gone.End()
	_, next := small.StartRoot(context.Background(), "next", "")
	next.End()
	orphan.End()
	if _, ok := small.Store().Get(gone.TraceIDString()); ok {
		t.Fatal("late child of an evicted trace recreated it")
	}
	if st := small.Store().Stats(); st.Completed != 1 || st.Evicted != 1 {
		t.Fatalf("stats %+v, want 1 buffered and 1 evicted", st)
	}
}

// TestChildrenEndAroundRoot ends children concurrently with their root and
// after it (run under -race). Every kept trace must hold all its spans: a
// child ending just after the tail decision finds the trace buffered.
func TestChildrenEndAroundRoot(t *testing.T) {
	const (
		roots    = 64
		children = 4
	)
	for _, sampler := range []Sampler{Always(), ErrSlow(time.Hour)} {
		tr := New(Options{Service: "svc", Sampler: sampler, Capacity: roots})
		var wg sync.WaitGroup
		for i := 0; i < roots; i++ {
			ctx, root := tr.StartRoot(context.Background(), "root", "")
			for c := 0; c < children; c++ {
				_, child := Start(ctx, "child")
				wg.Add(1)
				go func() {
					defer wg.Done()
					if c == 0 {
						child.Fail("child failed")
					}
					child.End()
				}()
			}
			root.End()
		}
		wg.Wait()
		st := tr.Store().Stats()
		if st.Completed+int(st.Dropped) != roots || st.Evicted != 0 {
			t.Fatalf("%s: stats %+v, want %d roots accounted for", sampler.Spec(), st, roots)
		}
		if sampler.Spec() == "always" && st.Completed != roots {
			t.Fatalf("always: %d traces buffered, want %d", st.Completed, roots)
		}
		for _, s := range tr.Store().Summaries(0) {
			if s.Spans != children+1 {
				t.Fatalf("%s: trace %s holds %d spans, want %d", sampler.Spec(), s.TraceID, s.Spans, children+1)
			}
		}
	}
}

// TestDroppedTraceAllocs gates the cost of the default sampler's common
// case: a fast, clean root with three children, recorded and then
// dropped, renders nothing and allocates only the spans, their contexts
// and the root's list of ended children (11; the pending set cost 39).
func TestDroppedTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tr := New(Options{Service: "svc", Sampler: ErrSlow(250 * time.Millisecond)})
	got := testing.AllocsPerRun(1000, func() {
		ctx, root := tr.StartRoot(context.Background(), "root", "")
		for i := 0; i < 3; i++ {
			_, c := Start(ctx, "child")
			c.End()
		}
		root.End()
	})
	if bound := 11.0; got > bound {
		t.Fatalf("dropped root + 3 children allocate %.1f, want at most %.1f", got, bound)
	}
	if st := tr.Store().Stats(); st.Completed != 0 {
		t.Fatalf("fast clean traces were kept: %+v", st)
	}
}
