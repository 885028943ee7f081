// Package trace is Gallery's dependency-free request-tracing subsystem.
//
// PR 1 gave the system aggregate metrics; with the serving gateway the
// request path now crosses two processes (galleryserve → galleryd → DAL →
// relstore/blobstore) and an aggregate histogram cannot say *which* layer
// made a given predict request slow. This package adds the request-level
// half of lifecycle visibility: spans with trace/span IDs, parent links,
// attributes, status and durations; a sampler (always / never /
// probabilistic / errors-and-slow-always); a bounded ring buffer of
// completed traces served at GET /v1/debug/traces; and W3C-style
// `traceparent` propagation so one predict request shows up as a single
// trace spanning both processes.
//
// Design constraints, in order:
//
//  1. Zero cost when off. trace.Start on a context carrying no span
//     returns a nil *Span without allocating, and every *Span method is
//     nil-receiver safe, so instrumented layers call them unconditionally.
//  2. No dependencies beyond the standard library and internal/obs.
//  3. Layers below HTTP never hold a Tracer: they parent to whatever span
//     rides in the context. Only the HTTP middlewares (which start root
//     spans) and the daemons (which own buffers and exporters) see one.
package trace

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID identifies one end-to-end request across processes (16 bytes,
// rendered as 32 hex chars in traceparent).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, 16 hex chars).
type SpanID [8]byte

// IsZero reports an unset trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports an unset span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// newTraceID and newSpanID draw from math/rand/v2's per-thread ChaCha8, so
// starting a span takes no lock. W3C treats an all-zero ID as invalid, so
// they draw again on zero.
func newTraceID() (t TraceID) {
	for t.IsZero() {
		binary.LittleEndian.PutUint64(t[:8], rand.Uint64())
		binary.LittleEndian.PutUint64(t[8:], rand.Uint64())
	}
	return t
}

func newSpanID() (s SpanID) {
	for s.IsZero() {
		binary.LittleEndian.PutUint64(s[:], rand.Uint64())
	}
	return s
}

// Attr is one key/value annotation on a span. Values are strings on the
// wire; numeric helpers format on write (spans are only annotated when
// sampled, so the formatting cost is off the unsampled hot path).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanData is the completed, immutable form of a span — the unit stored
// in the ring buffer, served over /v1/debug/traces, and shipped between
// processes by the exporter.
type SpanData struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Service  string    `json:"service,omitempty"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"duration_ms"`
	Attrs    []Attr    `json:"attrs,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// Span is one in-flight timed operation. A nil *Span is the not-sampled
// case: every method no-ops, so callers never branch on sampling.
type Span struct {
	tracer *Tracer
	// root is the first span this process opened for the trace (a root
	// points at itself). Its End makes the tail decision and commits the
	// trace; the spans below it only report to it.
	root    *Span
	traceID TraceID
	spanID  SpanID
	parent  SpanID
	name    string
	start   time.Time
	// kept marks a trace this process has already decided to keep: its
	// sampler keeps whatever it records (always, a probability hit), or the
	// caller's traceparent carried the sampled flag. Such a trace bypasses
	// the tail filter, and only such a trace sends the sampled flag on, so
	// a callee keeps what its caller keeps and decides the rest itself.
	kept bool

	mu    sync.Mutex
	attrs []Attr
	err   string
	dur   time.Duration
	ended bool
	// Root only: the spans that ended before it, whether any of them
	// failed, and (once ended) whether the trace went into the store.
	done     []*Span
	hadError bool
	stored   bool
}

// TraceIDString returns the span's trace ID in hex, or "" on a nil span —
// the form histogram exemplars and log lines carry.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.traceID.String()
}

// SpanIDString returns the span's own ID in hex, or "" on a nil span.
func (s *Span) SpanIDString() string {
	if s == nil {
		return ""
	}
	return s.spanID.String()
}

// Annotate attaches a string attribute. No-op on a nil span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// AnnotateInt attaches an integer attribute. No-op on a nil span.
func (s *Span) AnnotateInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Annotate(key, itoa(v))
}

// AnnotateDuration attaches a duration attribute rendered as
// milliseconds. No-op on a nil span.
func (s *Span) AnnotateDuration(key string, d time.Duration) {
	if s == nil {
		return
	}
	s.Annotate(key, ftoa(float64(d.Microseconds())/1000)+"ms")
}

// SetError records a failure on the span; the trace counts as errored for
// the errors-and-slow sampler. No-op on a nil span or nil error.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.Fail(err.Error())
}

// Fail records a failure described by msg (for callers with a status code
// rather than an error value). No-op on a nil span.
func (s *Span) Fail(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.err = msg
	s.mu.Unlock()
}

// Rename replaces the span's name — middlewares learn the matched route
// pattern only after the handler runs. No-op on a nil span.
func (s *Span) Rename(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.name = name
	s.mu.Unlock()
}

// End completes the span. A span below the local root hands itself to
// the root; the root's End decides the trace's fate. Ending twice is safe
// (second call no-ops); ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	if s.root == s {
		s.tracer.finish(s, end)
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = end.Sub(s.start)
	failed := s.err != ""
	s.mu.Unlock()
	// Lock order: a root's mu before its children's.
	r := s.root
	r.mu.Lock()
	switch {
	case !r.ended:
		r.done = append(r.done, s)
		r.hadError = r.hadError || failed
	case r.stored:
		// Late async work: join the kept trace if it is still buffered.
		s.tracer.store.add(s.data())
	}
	r.mu.Unlock()
}

// data renders the ended span in its stored form.
func (s *Span) data() SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dataLocked()
}

func (s *Span) dataLocked() SpanData {
	d := SpanData{
		TraceID:  s.traceID.String(),
		SpanID:   s.spanID.String(),
		Name:     s.name,
		Service:  s.tracer.service,
		Start:    s.start,
		Duration: float64(s.dur.Microseconds()) / 1000,
		Attrs:    s.attrs,
		Error:    s.err,
	}
	if !s.parent.IsZero() {
		d.ParentID = s.parent.String()
	}
	return d
}

// EndErr records err (if non-nil) and ends the span in one call — the
// shape of most instrumented returns.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.SetError(err)
	s.End()
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// ContextWith returns ctx carrying span. A nil span returns ctx unchanged
// (and costs nothing).
func ContextWith(ctx context.Context, span *Span) context.Context {
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, span)
}

// FromContext returns the span riding in ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child of the span in ctx. When ctx carries no span (not
// sampled, or no tracing wired) it returns (ctx, nil) without allocating —
// this is the only call instrumented layers make, so tracing off costs a
// context lookup and a nil check.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := &Span{
		tracer:  parent.tracer,
		root:    parent.root,
		traceID: parent.traceID,
		spanID:  newSpanID(),
		parent:  parent.spanID,
		name:    name,
		start:   time.Now(),
		kept:    parent.kept,
	}
	return ContextWith(ctx, child), child
}

// Tracer owns sampling decisions and the completed-trace store for one
// process. The zero value is unusable; build with New.
type Tracer struct {
	service  string
	sampler  Sampler
	store    *Store
	exporter func(spans []SpanData)
	// headKeeps reports that the sampler keeps every trace it records, so
	// a recorded trace is kept from its first span on.
	headKeeps bool
}

// Options configures a Tracer.
type Options struct {
	// Service labels every span this process emits ("galleryd",
	// "galleryserve").
	Service string
	// Sampler decides which requests are traced (default: Never).
	Sampler Sampler
	// Capacity bounds the completed-trace ring buffer (default 256).
	Capacity int
	// Exporter, when non-nil, receives every kept trace's local spans —
	// the cross-process shipping hook (galleryserve queues them on its
	// telemetry shipper for galleryd, so both processes' spans land in
	// one buffer). It runs on the goroutine that ended the local root
	// span, so it must not block.
	Exporter func(spans []SpanData)
}

// New builds a Tracer.
func New(opts Options) *Tracer {
	if opts.Sampler == nil {
		opts.Sampler = Never()
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	return &Tracer{
		service:   opts.Service,
		sampler:   opts.Sampler,
		store:     NewStore(opts.Capacity),
		exporter:  opts.Exporter,
		headKeeps: opts.Sampler.Keep(0, false),
	}
}

// Store exposes the tracer's completed-trace buffer for the debug
// endpoints.
func (t *Tracer) Store() *Store { return t.store }

// Service returns the tracer's service label.
func (t *Tracer) Service() string { return t.service }

// StartRoot opens this process's root span for a request. parent is the
// incoming traceparent header value ("" when absent). The decision tree:
//
//   - sampled traceparent came in → continue that trace, kept (the caller
//     decided), parenting to the remote span;
//   - otherwise → consult the sampler; a valid traceparent without the
//     flag gives the trace ID and parent to continue, so the halves that
//     both processes keep still join, and the tail filter decides;
//   - not sampled → (ctx, nil), zero allocations.
func (t *Tracer) StartRoot(ctx context.Context, name, parent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tid, sid, sampled, err := ParseTraceparent(parent)
	switch {
	case sampled: // the caller has decided to keep the trace
	case !t.sampler.Sample():
		return ctx, nil
	case err != nil:
		tid, sid = newTraceID(), SpanID{}
	}
	s := &Span{
		tracer:  t,
		traceID: tid,
		spanID:  newSpanID(),
		parent:  sid,
		name:    name,
		start:   time.Now(),
		kept:    sampled || t.headKeeps,
	}
	s.root = s
	return ContextWith(ctx, s), s
}

// finish ends the local root: it makes the tail decision from the head
// decision, the root's duration and error and its children's errors. A
// dropped trace is never rendered; a kept one enters the store and goes
// to the exporter. The root's mu is held through the store insert, so a
// child ending just after the decision finds the trace buffered.
func (t *Tracer) finish(r *Span, end time.Time) {
	r.mu.Lock()
	if r.ended {
		r.mu.Unlock()
		return
	}
	r.ended = true
	r.dur = end.Sub(r.start)
	done := r.done
	r.done = nil
	if !r.kept && !t.sampler.Keep(r.dur, r.err != "" || r.hadError) {
		r.mu.Unlock()
		t.store.drop()
		return
	}
	r.stored = true
	spans := make([]SpanData, 0, len(done)+1)
	for _, c := range done {
		spans = append(spans, c.data())
	}
	spans = append(spans, r.dataLocked())
	t.store.complete(spans)
	r.mu.Unlock()
	if t.exporter != nil {
		t.exporter(spans)
	}
}

// --- traceparent ---

// TraceparentHeader is the propagation header name (W3C Trace Context),
// in canonical form: Header.Get and Set canonicalize any other spelling
// into a new string on every call.
const TraceparentHeader = "Traceparent"

// ErrTraceparent reports a malformed traceparent header.
var ErrTraceparent = errors.New("trace: malformed traceparent")

// FlagSampled is the W3C trace-flags bit meaning "the caller is recording
// this trace".
const FlagSampled = 0x01

// Traceparent renders the W3C-style header for s:
// "00-<32 hex trace-id>-<16 hex span-id>-<flags>", where flags is 01
// (sampled) when this process has decided to keep the trace and 00 while
// its tail filter has yet to decide. A nil span returns "".
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	var buf [55]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], s.traceID[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], s.spanID[:])
	buf[52], buf[53], buf[54] = '-', '0', '0'
	if s.kept {
		buf[54] = '1'
	}
	return string(buf[:])
}

// ParseTraceparent parses "00-<trace-id>-<parent-id>-<flags>". Unknown
// versions are rejected; an all-zero trace or span ID is invalid per the
// W3C spec.
func ParseTraceparent(h string) (TraceID, SpanID, bool, error) {
	var tid TraceID
	var sid SpanID
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false, ErrTraceparent
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return tid, sid, false, ErrTraceparent
	}
	if _, err := hex.Decode(sid[:], []byte(h[36:52])); err != nil {
		return tid, sid, false, ErrTraceparent
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return tid, sid, false, ErrTraceparent
	}
	if tid.IsZero() || sid.IsZero() {
		return tid, sid, false, ErrTraceparent
	}
	return tid, sid, flags[0]&FlagSampled != 0, nil
}

// --- tiny formatting helpers (avoid fmt on annotation paths) ---

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	// Three decimal places is plenty for millisecond annotations.
	neg := f < 0
	if neg {
		f = -f
	}
	n := int64(f*1000 + 0.5)
	whole, frac := n/1000, n%1000
	out := itoa(whole) + "." + pad3(frac)
	if neg {
		return "-" + out
	}
	return out
}

func pad3(v int64) string {
	s := itoa(v)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}
