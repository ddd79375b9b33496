// Package trace is a minimal, dependency-free distributed-tracing model
// for the rumord stack: span and trace identifiers, W3C traceparent
// propagation, parent/child span links with attributes, and a bounded
// in-memory exporter for post-hoc inspection on /debug/events.
//
// It deliberately implements only what the service needs — there is no
// sampling, no batching, no wire exporter. A span is cheap enough to wrap
// every HTTP request and every job stage; finished spans land in a fixed
// ring so a long-lived daemon never grows without bound. See DESIGN.md §9
// for the span taxonomy.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rumornet/internal/obs"
)

// TraceID identifies one causal request tree (16 bytes, hex-encoded on the
// wire). The zero value means "absent".
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes). The zero value
// means "absent".
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-char lowercase hex form ("" for the zero id).
func (t TraceID) String() string {
	if t.IsZero() {
		return ""
	}
	return hex.EncodeToString(t[:])
}

// String returns the 16-char lowercase hex form ("" for the zero id).
func (s SpanID) String() string {
	if s.IsZero() {
		return ""
	}
	return hex.EncodeToString(s[:])
}

// SpanContext is the propagated identity of a span: what crosses process
// boundaries in the traceparent header. The zero value means "no trace".
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte // bit 0: sampled
}

// Valid reports whether both ids are non-zero, as W3C requires.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the W3C header value
// "00-<trace-id>-<span-id>-<flags>". Returns "" for an invalid context.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return fmt.Sprintf("00-%s-%s-%02x", sc.TraceID.String(), sc.SpanID.String(), sc.Flags)
}

// ParseTraceparent parses a W3C traceparent header value. It returns
// ok == false for anything malformed — wrong field count or length,
// non-lowercase-hex digits, the reserved version "ff", or an all-zero
// trace or span id — so callers treat a bad header exactly like an absent
// one and start a fresh trace. Versions above 00 are accepted with extra
// trailing fields ignored, per the spec's forward-compatibility rule.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	ver, ok := hexBytes(parts[0], 1)
	if !ok || ver[0] == 0xff {
		return SpanContext{}, false
	}
	if ver[0] == 0 && len(parts) != 4 {
		return SpanContext{}, false // version 00 has exactly four fields
	}
	tid, ok := hexBytes(parts[1], 16)
	if !ok {
		return SpanContext{}, false
	}
	sid, ok := hexBytes(parts[2], 8)
	if !ok {
		return SpanContext{}, false
	}
	flags, ok := hexBytes(parts[3], 1)
	if !ok {
		return SpanContext{}, false
	}
	var sc SpanContext
	copy(sc.TraceID[:], tid)
	copy(sc.SpanID[:], sid)
	sc.Flags = flags[0]
	if !sc.Valid() {
		return SpanContext{}, false // all-zero ids are explicitly invalid
	}
	return sc, true
}

// hexBytes decodes s into exactly n bytes of lowercase hex.
func hexBytes(s string, n int) ([]byte, bool) {
	if len(s) != 2*n || strings.ToLower(s) != s {
		return nil, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, false
	}
	return b, true
}

// idState is the process-wide id generator: a crypto/rand seed mixed with
// an atomic counter through SplitMix64, so ids are unique and unpredictable
// without taking a lock or draining entropy per span.
var idState struct {
	seed uint64
	ctr  atomic.Uint64
	once sync.Once
}

func nextRand() uint64 {
	idState.once.Do(func() {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			idState.seed = binary.LittleEndian.Uint64(b[:])
		} else {
			idState.seed = uint64(time.Now().UnixNano())
		}
	})
	// SplitMix64 finalizer over seed+counter: distinct inputs give
	// distinct, well-mixed outputs.
	z := idState.seed + idState.ctr.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewTraceID returns a fresh non-zero trace id.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		binary.BigEndian.PutUint64(t[:8], nextRand())
		binary.BigEndian.PutUint64(t[8:], nextRand())
	}
	return t
}

// NewSpanID returns a fresh non-zero span id.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		binary.BigEndian.PutUint64(s[:], nextRand())
	}
	return s
}

// SpanData is the exported snapshot of a finished span.
type SpanData struct {
	Name       string            `json:"name"`
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_span_id,omitempty"`
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Span is one in-flight timed operation. Create with Tracer.StartSpan;
// call End exactly once (extra Ends are no-ops). Methods are safe for
// concurrent use; a nil *Span is inert, so call sites need no "is tracing
// on" branches.
type Span struct {
	tracer *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	start  time.Time

	mu    sync.Mutex
	attrs []obs.Label
	ended bool
}

// Context returns the span's propagated identity.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr attaches (or appends) a string attribute.
func (s *Span) SetAttr(name, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, obs.L(name, value))
	s.mu.Unlock()
}

// End finishes the span and hands it to the tracer's bounded exporter.
// Second and later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	end := time.Now()
	data := SpanData{
		Name:       s.name,
		TraceID:    s.sc.TraceID.String(),
		SpanID:     s.sc.SpanID.String(),
		ParentID:   s.parent.String(),
		Start:      s.start,
		End:        end,
		DurationMS: float64(end.Sub(s.start)) / float64(time.Millisecond),
	}
	if len(s.attrs) > 0 {
		data.Attrs = make(map[string]string, len(s.attrs))
		for _, l := range s.attrs {
			data.Attrs[l.Name] = l.Value
		}
	}
	s.mu.Unlock()
	s.tracer.export(data)
}

// Tracer creates spans and retains the most recent finished ones in a
// fixed ring for /debug/events. The zero value is not usable; call New.
type Tracer struct {
	mu      sync.Mutex
	ring    []SpanData
	next    int
	filled  bool
	dropped int64
}

// New returns a tracer retaining up to capacity finished spans (minimum 1;
// values below it are raised).
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpanData, 0, capacity)}
}

// StartSpan begins a span. A valid parent links the span into the parent's
// trace; an invalid (zero) parent starts a fresh trace. attrs are attached
// up front.
func (t *Tracer) StartSpan(name string, parent SpanContext, attrs ...obs.Label) *Span {
	if t == nil {
		return nil
	}
	sc := SpanContext{SpanID: NewSpanID(), Flags: 1}
	var parentID SpanID
	if parent.Valid() {
		sc.TraceID = parent.TraceID
		sc.Flags = parent.Flags | 1
		parentID = parent.SpanID
	} else {
		sc.TraceID = NewTraceID()
	}
	return &Span{
		tracer: t,
		name:   name,
		sc:     sc,
		parent: parentID,
		start:  time.Now(),
		attrs:  attrs,
	}
}

// export appends a finished span to the ring, overwriting the oldest entry
// once full and counting the overwritten spans as dropped.
func (t *Tracer) export(data SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, data)
		return
	}
	t.ring[t.next] = data
	t.next = (t.next + 1) % cap(t.ring)
	t.filled = true
	t.dropped++
}

// Import adds externally finished spans — uploaded by a worker node with
// its heartbeat or result — to the ring as if they had ended locally, in
// the order given (oldest first keeps ring eviction sensible).
func (t *Tracer) Import(spans []SpanData) {
	for _, sp := range spans {
		t.export(sp)
	}
}

// Finished returns the retained finished spans, oldest first.
func (t *Tracer) Finished() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.ring))
	if t.filled {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Dropped returns how many finished spans the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// spanCtxKey carries a SpanContext through a context.Context.
type spanCtxKey struct{}

// ContextWithSpanContext returns a child context carrying sc.
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFromContext returns the span context carried by ctx, or the
// zero SpanContext when none was attached.
func SpanContextFromContext(ctx context.Context) SpanContext {
	if sc, ok := ctx.Value(spanCtxKey{}).(SpanContext); ok {
		return sc
	}
	return SpanContext{}
}
