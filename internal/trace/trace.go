// Package trace is radqec's in-process tracing layer: a span model
// matching the campaign domain — campaign → point → {chunk-run, decode,
// store-commit} — recorded into bounded lock-free per-campaign rings
// (the same shape as telemetry.Campaign). A campaign submitted with a
// sampled W3C traceparent header joins the caller's trace.
//
// Cost model: sampling is per-campaign. An unsampled campaign has a
// nil *Recorder, every entry point is nil-safe, and the zero
// SpanContext/ActiveSpan values are inert — the hot path pays one
// pointer test and allocates nothing (the zero-alloc tile guard and
// the sweep bench gate hold with tracing off). A sampled campaign
// allocates one Span per recorded span, stored into the ring with a
// single atomic publish.
package trace

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// RingSize bounds the spans retained per campaign. Like the telemetry
// ring it is a power of two so the slot index is a mask; a campaign
// that records more spans than this keeps the most recent ones (Seq
// stays dense, so readers can tell spans were dropped).
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

// Header is the W3C trace-context header name a campaign submission
// may carry.
const Header = "traceparent"

// ParseTraceparent parses a W3C traceparent header and returns the
// sampled flag. Version ff is invalid and version 00 exactly 55 bytes; a
// later version parses as 00, ignoring what follows a dash. Zero ids fail.
func ParseTraceparent(h string) (t TraceID, s SpanID, sampled bool, err error) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' ||
		len(h) > 55 && (h[:2] == "00" || h[55] != '-') {
		return t, s, false, fmt.Errorf("trace: malformed traceparent %q", h)
	}
	var ver [1]byte
	if _, err = hex.Decode(ver[:], []byte(h[0:2])); err != nil || ver[0] == 0xff {
		return t, s, false, fmt.Errorf("trace: bad version in %q", h)
	}
	if _, err = hex.Decode(t[:], []byte(h[3:35])); err != nil {
		return t, s, false, fmt.Errorf("trace: bad trace id in %q", h)
	}
	if _, err = hex.Decode(s[:], []byte(h[36:52])); err != nil {
		return t, s, false, fmt.Errorf("trace: bad span id in %q", h)
	}
	var flags [1]byte
	if _, err = hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return t, s, false, fmt.Errorf("trace: bad flags in %q", h)
	}
	if t.IsZero() || s.IsZero() {
		return t, s, false, fmt.Errorf("trace: zero id in traceparent %q", h)
	}
	return t, s, flags[0]&1 != 0, nil
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
	// Parent is the parent span's id; empty only for a campaign span
	// that adopted no incoming traceparent.
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

// Recorder collects the spans one campaign records on one node. The
// ring is the telemetry.Campaign shape: an atomic dense sequence and
// RingSize atomic slots, so writers never lock and readers snapshot
// without stalling them.
type Recorder struct {
	traceID TraceID
	node    string
	// remoteParent is the caller's span id when this recorder was
	// adopted from an incoming traceparent; the campaign span parents
	// under it.
	remoteParent SpanID

	seq   atomic.Uint64
	slots [RingSize]atomic.Pointer[Span]
}

// New starts a fresh sampled trace rooted at this node.
func New(node string) *Recorder {
	return &Recorder{traceID: NewTraceID(), node: node}
}

// Adopt joins an incoming sampled trace: spans record under the given
// trace id and the campaign span parents under the remote span.
func Adopt(id TraceID, parent SpanID, node string) *Recorder {
	return &Recorder{traceID: id, node: node, remoteParent: parent}
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
	a := ActiveSpan{sc: SpanContext{rec: r, span: newSpanID()}, name: SpanCampaign, start: time.Now()}
	a.parent = r.remoteParent
	a.key = key
	return a
}

// record publishes one finished span into the ring.
func (r *Recorder) record(s Span) {
	s.Seq = r.seq.Add(1) - 1
	r.slots[s.Seq%RingSize].Store(&s)
}

// Len returns how many spans the recorder has published (including
// any the ring has since dropped).
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Spans snapshots the retained spans in sequence order. Spans being
// overwritten concurrently are skipped (their slot's Seq no longer
// matches), exactly like telemetry.Campaign.Since.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	n := r.seq.Load()
	first := uint64(0)
	if n > RingSize {
		first = n - RingSize
	}
	out := make([]Span, 0, n-first)
	for seq := first; seq < n; seq++ {
		s := r.slots[seq%RingSize].Load()
		if s == nil || s.Seq != seq {
			continue // lapped by a concurrent writer
		}
		out = append(out, *s)
	}
	return out
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
	r.record(s)
}
