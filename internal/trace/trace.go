// Package trace is radqec's in-process tracing layer: a span model
// matching the campaign domain — campaign → point → {chunk-run, decode,
// store-commit} — recorded into a bounded lock-free per-campaign Ring
// (telemetry.Campaign keeps its signals in one too).
//
// Cost model: sampling is per-campaign, asked for by the CLI's trace
// file flags or a daemon request's "trace_sample":"on". An unsampled
// campaign has a nil *Recorder, every entry point is nil-safe, and the
// zero SpanContext/ActiveSpan values are inert — the hot path pays one
// pointer test and allocates nothing (the zero-alloc tile guard and the
// sweep bench gate hold with tracing off). A sampled campaign allocates
// one Span per recorded span, stored into the ring with a single atomic
// publish.
package trace

import (
	"encoding/hex"
	"math/rand/v2"
	"time"
)

// RingSize bounds the spans retained per campaign; past it a campaign
// keeps the most recent ones (Seq stays dense, so the drop shows).
const RingSize = 8192

// Span kinds — the domain model. A campaign span is the root, point
// spans are its children, and the leaf kinds hang off a point: drawn
// by the sweep from the numbers of the turn's telemetry record.
const (
	SpanCampaign    = "campaign"
	SpanPoint       = "point"
	SpanChunkRun    = "chunk-run"
	SpanDecode      = "decode"
	SpanStoreCommit = "store-commit"
)

// TraceID is the 16-byte W3C trace id shared by every span of one
// campaign.
type TraceID [16]byte

// SpanID is the 8-byte W3C span id.
type SpanID [8]byte

// IsZero reports the invalid all-zero trace id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the invalid all-zero span id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random non-zero trace id.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		fill(t[:])
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		fill(s[:])
	}
	return s
}

// fill writes random bytes. math/rand/v2's global generator is
// randomly seeded and lock-free; span ids only need uniqueness, not
// unpredictability, and this keeps the sampled path cheap.
func fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := rand.Uint64()
		for j := i; j < len(b) && j < i+8; j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// Span is one recorded interval. Trace/ID/Parent are hex strings so
// the NDJSON endpoint and the Chrome export marshal them directly.
type Span struct {
	// Seq is the span's dense per-recorder sequence number; gaps after
	// a ring wrap tell readers spans were dropped.
	Seq uint64 `json:"seq"`
	// Trace is the campaign-wide trace id (32 hex chars).
	Trace string `json:"trace_id"`
	// ID is this span's id (16 hex chars).
	ID string `json:"span_id"`
	// Parent is the parent span's id; empty only for the campaign span,
	// the root of its trace.
	Parent string `json:"parent_id,omitempty"`
	// Name is the span kind (Span* constants).
	Name string `json:"name"`
	// Node names the recording process: "local" in the daemon.
	Node string `json:"node,omitempty"`
	// Key is the sweep point key, when the span concerns one point.
	Key string `json:"key,omitempty"`
	// Hash is the point content hash, when known.
	Hash string `json:"hash,omitempty"`
	// Detail is a free-form annotation (the cache outcome, …).
	Detail string `json:"detail,omitempty"`
	// Shots is the shot count the span covered, when it covered shots.
	Shots int `json:"shots,omitempty"`
	// Err is the span's terminal error, if it ended in one.
	Err string `json:"error,omitempty"`
	// StartNS is the wall-clock start (Unix nanoseconds); DurNS the
	// monotonic duration.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// Recorder collects the spans one campaign records on one node, in a
// Ring of RingSize slots.
type Recorder struct {
	traceID TraceID
	node    string
	spans   *Ring[Span]
}

// New starts a fresh sampled trace rooted at this node.
func New(node string) *Recorder {
	return &Recorder{traceID: NewTraceID(), node: node,
		spans: NewRing(RingSize, func(s *Span, seq uint64) { s.Seq = seq })}
}

// TraceID returns the recorder's trace id (zero for nil).
func (r *Recorder) TraceID() TraceID {
	if r == nil {
		return TraceID{}
	}
	return r.traceID
}

// Sampled reports whether spans are being recorded; it is the
// campaign's sampling decision (nil recorder ⇒ off).
func (r *Recorder) Sampled() bool { return r != nil }

// Campaign starts the node-local root span of the campaign. Exactly
// one per recorder; its context parents every other local span.
func (r *Recorder) Campaign(key string) ActiveSpan {
	if r == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{sc: SpanContext{rec: r, span: newSpanID()},
		name: SpanCampaign, key: key, start: time.Now()}
}

// Len returns how many spans the recorder has published (including
// any the ring has since dropped).
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.spans.Len()
}

// Spans snapshots the retained spans in sequence order, skipping any a
// concurrent writer is overwriting.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	spans, _ := r.spans.Since(0, RingSize)
	return spans
}

// SpanContext names one live span: the handle children parent under.
// The zero value is inert.
type SpanContext struct {
	rec  *Recorder
	span SpanID
}

// Sampled reports whether this context belongs to a sampled campaign.
func (sc SpanContext) Sampled() bool { return sc.rec != nil }

// TraceID returns the trace id (zero when unsampled).
func (sc SpanContext) TraceID() TraceID { return sc.rec.TraceID() }

// Start opens a child span under this context. On an unsampled
// context it returns the inert zero ActiveSpan at the cost of one
// branch — safe on hot paths that already hold the context.
func (sc SpanContext) Start(name, key string) ActiveSpan {
	if sc.rec == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{
		sc:     SpanContext{rec: sc.rec, span: newSpanID()},
		parent: sc.span,
		name:   name,
		key:    key,
		start:  time.Now(),
	}
}

// Draw records a finished child span from an interval measured
// elsewhere: the sweep draws a turn's chunk-run, decode and store-commit
// spans from the same numbers it publishes on the turn's telemetry
// record, so the two can never disagree. A no-op on an unsampled
// context.
func (sc SpanContext) Draw(name, key, hash string, shots int, start time.Time, dur time.Duration) {
	a := sc.Start(name, key)
	if a.sc.rec == nil {
		return
	}
	a.start, a.hash, a.shots = start, hash, shots
	a.record(dur)
}

// ActiveSpan is an open span held by value on the recording
// goroutine's stack; End publishes it. The zero value is inert.
type ActiveSpan struct {
	sc     SpanContext
	parent SpanID
	name   string
	key    string
	hash   string
	detail string
	errs   string
	shots  int
	start  time.Time
}

// Sampled reports whether End will record anything.
func (a *ActiveSpan) Sampled() bool { return a.sc.rec != nil }

// Context returns the span's context for parenting children.
func (a *ActiveSpan) Context() SpanContext { return a.sc }

// SetHash annotates the span with a point content hash.
func (a *ActiveSpan) SetHash(h string) { a.hash = h }

// SetDetail annotates the span with a free-form note.
func (a *ActiveSpan) SetDetail(d string) { a.detail = d }

// SetShots annotates the span with the shots it covered.
func (a *ActiveSpan) SetShots(n int) { a.shots = n }

// SetError marks the span as ended in error.
func (a *ActiveSpan) SetError(err error) {
	if err != nil && a.sc.rec != nil {
		a.errs = err.Error()
	}
}

// End records the span. Safe (and free) on the zero value; calling
// twice records twice, so don't.
func (a *ActiveSpan) End() {
	if a.sc.rec == nil {
		return
	}
	a.record(time.Since(a.start))
}

// record publishes the span with the given duration.
func (a *ActiveSpan) record(dur time.Duration) {
	r := a.sc.rec
	s := Span{
		Trace:   r.traceID.String(),
		ID:      a.sc.span.String(),
		Name:    a.name,
		Node:    r.node,
		Key:     a.key,
		Hash:    a.hash,
		Detail:  a.detail,
		Shots:   a.shots,
		Err:     a.errs,
		StartNS: a.start.UnixNano(),
		DurNS:   dur.Nanoseconds(),
	}
	if !a.parent.IsZero() {
		s.Parent = a.parent.String()
	}
	r.spans.Add(s)
}
