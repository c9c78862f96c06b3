// Package trace adds hierarchical, request-scoped tracing on top of the
// obs metrics substrate: trace and span identifiers in the W3C Trace
// Context format, parent/child spans carried through context.Context,
// per-span attributes and error status, and two exporters — a JSONL
// trace journal and the Chrome trace_event format (loadable in
// chrome://tracing or Perfetto).
//
// The package is nil-tolerant by design: every method on a nil *Tracer
// or nil *Span is a no-op, so call sites can wire tracing
// unconditionally and pay nothing when no tracer is configured. Spans
// cross process boundaries in HTTP requests, which carry a
// `traceparent` header (Inject/Extract).
//
// Like the rest of obs, tracing reads the wall clock and never feeds
// back into methodology results.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sync"
	"time"
)

// TraceID identifies one end-to-end request tree (16 bytes, rendered as
// 32 lowercase hex characters, as in W3C Trace Context).
type TraceID [16]byte

// String renders the ID as 32 hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// SpanID identifies one span within a trace (8 bytes, 16 hex chars).
type SpanID [8]byte

// String renders the ID as 16 hex characters.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// SpanContext is the propagated identity of a span: enough to parent a
// child in another process.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// idSource generates random IDs. crypto/rand seeds a lockstep
// math/rand stream once; after that IDs are cheap and race-safe.
var idSource = struct {
	sync.Mutex
	rng *rand.Rand
}{rng: newRNG()}

func newRNG() *rand.Rand {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
}

// newIDs returns a fresh non-zero trace ID and span ID.
func newIDs() (TraceID, SpanID) {
	idSource.Lock()
	defer idSource.Unlock()
	var tid TraceID
	var sid SpanID
	for tid.IsZero() {
		binary.LittleEndian.PutUint64(tid[0:8], idSource.rng.Uint64())
		binary.LittleEndian.PutUint64(tid[8:16], idSource.rng.Uint64())
	}
	for sid.IsZero() {
		binary.LittleEndian.PutUint64(sid[:], idSource.rng.Uint64())
	}
	return tid, sid
}

func newSpanID() SpanID {
	idSource.Lock()
	defer idSource.Unlock()
	var sid SpanID
	for sid.IsZero() {
		binary.LittleEndian.PutUint64(sid[:], idSource.rng.Uint64())
	}
	return sid
}

// DefaultMaxSpans bounds a tracer's finished-span journal. Once full,
// further spans still run (IDs propagate, logs get trace IDs) but are
// not journaled; Dropped counts them.
const DefaultMaxSpans = 65536

// Tracer collects finished spans into an in-memory journal for export.
// All methods are safe for concurrent use. The nil tracer is valid:
// Start falls back to parenting from the context (see Start), and
// exports write nothing.
type Tracer struct {
	// Now supplies the clock; overridable in tests. Defaults to
	// time.Now.
	Now func() time.Time
	// MaxSpans bounds the journal (0 selects DefaultMaxSpans).
	MaxSpans int

	mu      sync.Mutex
	records []Record
	dropped int
}

// New returns an empty tracer using the wall clock.
func New() *Tracer { return &Tracer{Now: time.Now} }

func (t *Tracer) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation in a trace. Create spans with
// Tracer.Start (or the package-level Start for child spans); a Span is
// not safe for concurrent mutation, matching its single-operation
// scope. The nil span is valid and ignores all calls.
type Span struct {
	tracer *Tracer
	sc     SpanContext
	parent SpanID // zero for a root span
	name   string
	start  time.Time
	attrs  []Attr
	errMsg string
	ended  bool
}

type spanKey struct{}
type remoteKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current span in ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithRemote returns ctx carrying an extracted remote parent
// (from a traceparent header). A subsequent Tracer.Start
// joins the remote trace instead of opening a new one. Invalid span
// contexts are ignored.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// RemoteFromContext returns the remote parent carried by ctx, if any.
func RemoteFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(remoteKey{}).(SpanContext)
	return sc, ok
}

// Start begins a span named name. Parentage, in order of preference: a
// span already in ctx (child, same trace), a remote span context in ctx
// (child of the remote caller), else a fresh root. The returned context
// carries the new span for further children. On a nil tracer Start
// degrades to the package-level Start: a child is still created when
// ctx carries a span (whose tracer journals it), otherwise no span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return Start(ctx, name)
	}
	sp := &Span{tracer: t, name: name, start: t.now()}
	if parent := SpanFromContext(ctx); parent != nil && parent.sc.Valid() {
		sp.sc = SpanContext{TraceID: parent.sc.TraceID, SpanID: newSpanID()}
		sp.parent = parent.sc.SpanID
	} else if remote, ok := RemoteFromContext(ctx); ok {
		sp.sc = SpanContext{TraceID: remote.TraceID, SpanID: newSpanID()}
		sp.parent = remote.SpanID
	} else {
		tid, sid := newIDs()
		sp.sc = SpanContext{TraceID: tid, SpanID: sid}
	}
	return ContextWithSpan(ctx, sp), sp
}

// Start begins a child of the span carried by ctx, journaled by that
// span's tracer. With no span in ctx it returns (ctx, nil): tracing
// stays off unless something upstream turned it on.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil || parent.tracer == nil {
		return ctx, nil
	}
	return parent.tracer.Start(ctx, name)
}

// Context returns the span's propagatable identity (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID as hex ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, value int) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: itoa(value)})
}

// SetError marks the span failed with err's message (nil err is a
// no-op, so `defer func() { sp.SetError(err) }()` composes with the
// success path).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// End finishes the span, journals it, and returns its duration. A
// second End is a no-op returning zero.
func (s *Span) End() time.Duration {
	if s == nil || s.ended || s.tracer == nil {
		return 0
	}
	s.ended = true
	end := s.tracer.now()
	d := end.Sub(s.start)
	rec := Record{
		TraceID:  s.sc.TraceID.String(),
		SpanID:   s.sc.SpanID.String(),
		Name:     s.name,
		Start:    s.start,
		Duration: d,
		Attrs:    s.attrs,
		Error:    s.errMsg,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	s.tracer.record(rec)
	return d
}

func (t *Tracer) record(rec Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	max := t.MaxSpans
	if max <= 0 {
		max = DefaultMaxSpans
	}
	if len(t.records) >= max {
		t.dropped++
		return
	}
	t.records = append(t.records, rec)
}

// Dropped returns how many finished spans exceeded MaxSpans.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Records returns a snapshot of the journaled spans in completion
// order (nil tracer returns nil).
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, len(t.records))
	copy(out, t.records)
	return out
}

// itoa avoids strconv in the hot span path for small counts; it is a
// plain decimal formatter.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
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
