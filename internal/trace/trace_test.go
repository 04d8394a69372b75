package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceparent renders the W3C header a sampled caller sends: version
// 00, sampled flag set.
func traceparent(t TraceID, s SpanID) string {
	return fmt.Sprintf("00-%s-%s-01", t, s)
}

// TestTraceparentRoundTrip: a rendered header parses back to the same
// ids with the sampled flag set.
func TestTraceparentRoundTrip(t *testing.T) {
	r := New("node-a")
	root := r.Campaign("camp")
	h := traceparent(r.TraceID(), root.Context().span)
	tid, sid, sampled, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("parse %q: %v", h, err)
	}
	if !sampled {
		t.Fatalf("header %q not sampled", h)
	}
	if tid != r.TraceID() || sid != root.Context().span {
		t.Fatalf("round trip mismatch: %v/%v vs %v/%v", tid, sid, r.TraceID(), root.Context().span)
	}
}

// TestTraceparentRejectsMalformed: truncated, zero-id and garbage
// headers all error instead of producing a zero-id trace.
func TestTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
	} {
		if _, _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	// Unsampled flag parses fine but reports sampled=false.
	_, _, sampled, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if err != nil || sampled {
		t.Errorf("unsampled header: sampled=%v err=%v", sampled, err)
	}
}

// TestNilRecorderIsInert: every entry point on the unsampled path is
// a no-op on nil/zero values — the zero-cost contract.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Sampled() || r.Len() != 0 || r.Spans() != nil || !r.TraceID().IsZero() {
		t.Fatal("nil recorder not inert")
	}
	root := r.Campaign("x")
	if root.Sampled() {
		t.Fatal("nil recorder produced a sampled span")
	}
	child := root.Context().Start(SpanPoint, "p")
	child.SetHash("h")
	child.SetError(fmt.Errorf("boom"))
	child.End()
	root.End()
}

// TestSpanHierarchyAndRing: spans record with correct parent links,
// and the ring keeps the most recent RingSize spans with dense Seq.
func TestSpanHierarchyAndRing(t *testing.T) {
	r := New("node-a")
	root := r.Campaign("camp")
	pt := root.Context().Start(SpanPoint, "d=5")
	chunk := pt.Context().Start(SpanChunkRun, "d=5")
	chunk.SetShots(512)
	chunk.End()
	pt.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.Trace != r.TraceID().String() {
			t.Errorf("span %s trace %s, want %s", s.Name, s.Trace, r.TraceID())
		}
		if s.Node != "node-a" {
			t.Errorf("span %s node %q", s.Name, s.Node)
		}
	}
	if byName[SpanCampaign].Parent != "" {
		t.Errorf("root campaign span has parent %q", byName[SpanCampaign].Parent)
	}
	if byName[SpanPoint].Parent != byName[SpanCampaign].ID {
		t.Errorf("point parent %q, want campaign %q", byName[SpanPoint].Parent, byName[SpanCampaign].ID)
	}
	if byName[SpanChunkRun].Parent != byName[SpanPoint].ID {
		t.Errorf("chunk parent %q, want point %q", byName[SpanChunkRun].Parent, byName[SpanPoint].ID)
	}
	if byName[SpanChunkRun].Shots != 512 {
		t.Errorf("chunk shots %d", byName[SpanChunkRun].Shots)
	}
}

// TestRingBounded: overflowing the ring keeps the latest RingSize
// spans and Len keeps counting.
func TestRingBounded(t *testing.T) {
	r := New("n")
	root := r.Campaign("c")
	const extra = 100
	for i := 0; i < RingSize+extra; i++ {
		s := root.Context().Start(SpanChunkRun, "k")
		s.End()
	}
	if got := r.Len(); got != RingSize+extra {
		t.Fatalf("Len = %d, want %d", got, RingSize+extra)
	}
	spans := r.Spans()
	if len(spans) != RingSize {
		t.Fatalf("retained %d spans, want %d", len(spans), RingSize)
	}
	if spans[0].Seq != extra {
		t.Fatalf("oldest retained seq %d, want %d", spans[0].Seq, extra)
	}
}

// TestAdoptStitches: a recorder adopted from a caller's traceparent
// shares the trace id and parents its campaign span under the caller's
// span.
func TestAdoptStitches(t *testing.T) {
	a := New("node-a")
	rootA := a.Campaign("camp")
	tid, sid, _, err := ParseTraceparent(traceparent(a.TraceID(), rootA.Context().span))
	if err != nil {
		t.Fatal(err)
	}
	b := Adopt(tid, sid, "node-b")
	rootB := b.Campaign("camp")
	rootB.End()
	spans := b.Spans()
	if len(spans) != 1 {
		t.Fatalf("node-b recorded %d spans", len(spans))
	}
	if spans[0].Trace != a.TraceID().String() {
		t.Fatalf("node-b trace %s, want %s", spans[0].Trace, a.TraceID())
	}
	if spans[0].Parent != rootA.Context().span.String() {
		t.Fatalf("node-b campaign parent %q, want node-a campaign %q", spans[0].Parent, rootA.Context().span)
	}
}

// TestConcurrentRecording: many goroutines recording through one
// recorder race-safely produce dense sequence numbers.
func TestConcurrentRecording(t *testing.T) {
	r := New("n")
	root := r.Campaign("c")
	var wg sync.WaitGroup
	const per, workers = 200, 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := root.Context().Start(SpanChunkRun, "k")
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != per*workers {
		t.Fatalf("Len = %d, want %d", got, per*workers)
	}
	spans := r.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq != spans[i-1].Seq+1 {
			t.Fatalf("non-dense seq: %d after %d", spans[i].Seq, spans[i-1].Seq)
		}
	}
}

// TestHistogramExemplars: observations land in the right buckets, the
// OpenMetrics rendering carries exemplars and the classic rendering
// omits them.
func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram("decode")
	tid := NewTraceID()
	h.Observe(700*time.Microsecond, tid) // le=0.001 bucket
	h.Observe(40*time.Second, tid)       // +Inf bucket
	if h.Count() != 2 {
		t.Fatalf("count %d", h.Count())
	}
	var om, classic bytes.Buffer
	h.WritePrometheus(&om, "radqecd_decode_seconds", true)
	h.WritePrometheus(&classic, "radqecd_decode_seconds", false)
	if !strings.Contains(om.String(), `# {trace_id="`+tid.String()+`"}`) {
		t.Fatalf("openmetrics rendering missing exemplar:\n%s", om.String())
	}
	if strings.Contains(classic.String(), "# {") {
		t.Fatalf("classic rendering carries exemplars:\n%s", classic.String())
	}
	if !strings.Contains(classic.String(), `radqecd_decode_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket wrong:\n%s", classic.String())
	}
	if !strings.Contains(classic.String(), `radqecd_decode_seconds_bucket{le="0.001"} 1`) {
		t.Fatalf("0.001 bucket wrong:\n%s", classic.String())
	}
	if !strings.Contains(classic.String(), "radqecd_decode_seconds_count 2") {
		t.Fatalf("count line wrong:\n%s", classic.String())
	}
}

// TestWriteChrome: the export is valid JSON with one X event per
// span, process metadata per node, and microsecond timestamps.
func TestWriteChrome(t *testing.T) {
	r := New("node-a")
	root := r.Campaign("camp")
	pt := root.Context().Start(SpanPoint, "d=5")
	pt.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not JSON: %v\n%s", err, buf.String())
	}
	var x, m int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			x++
		case "M":
			m++
		}
	}
	if x != 2 {
		t.Fatalf("chrome export has %d X events, want 2", x)
	}
	if m == 0 {
		t.Fatal("chrome export missing metadata events")
	}
}

// TestPathHistogramFeed: the decode and store-commit histograms are
// fed by the sweep from the turn record, not by their spans.
func TestPathHistogramFeed(t *testing.T) {
	decode, commit := DecodeHist.Count(), CommitHist.Count()
	r := New("n")
	root := r.Campaign("c")
	d := root.Context().Start(SpanDecode, "k")
	d.End()
	root.Context().Draw(SpanDecode, "k", "", 64, time.Now(), time.Millisecond)
	root.Context().Draw(SpanStoreCommit, "k", "", 64, time.Now(), time.Millisecond)
	root.End()
	if DecodeHist.Count() != decode || CommitHist.Count() != commit {
		t.Fatalf("decode/store-commit histograms moved by %d/%d on span ends",
			DecodeHist.Count()-decode, CommitHist.Count()-commit)
	}
}

// TestDrawRecordsGivenInterval: a drawn span carries exactly the start
// and duration it was handed, under the drawing context.
func TestDrawRecordsGivenInterval(t *testing.T) {
	r := New("n")
	root := r.Campaign("c")
	start := time.Unix(1700000000, 42)
	root.Context().Draw(SpanStoreCommit, "k", "h", 0, start, 1234*time.Nanosecond)
	var unsampled SpanContext
	unsampled.Draw(SpanStoreCommit, "k", "h", 0, start, time.Second)
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != SpanStoreCommit || s.Key != "k" || s.Hash != "h" || s.Parent != root.Context().span.String() {
		t.Fatalf("drawn span %+v", s)
	}
	if s.StartNS != start.UnixNano() || s.DurNS != 1234 {
		t.Fatalf("drawn interval start %d dur %d", s.StartNS, s.DurNS)
	}
}

// FuzzParseTraceparent: arbitrary header bytes never panic the parser;
// every rendered header parses back to its ids, sampled; and a header
// the parser accepts obeys W3C trace-context — version ff is invalid,
// version 00 is exactly 55 bytes, a longer header of a later version
// continues with a dash — and a 55-byte one re-renders from the parsed
// ids to its lower-cased input.
func FuzzParseTraceparent(f *testing.F) {
	ids := []byte("\x4b\xf9\x2f\x35\x77\xb3\x4d\xa6\xa3\xce\x92\x9d\x0e\x0e\x47\x36\x00\xf0\x67\xaa\x0b\xa9\x02\xb7")
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"",
	} {
		f.Add(h, ids)
	}
	f.Add("", []byte{})
	f.Fuzz(func(t *testing.T, h string, ids []byte) {
		var tid TraceID
		var sid SpanID
		copy(tid[:], ids)
		copy(sid[:], ids[min(len(ids), len(tid)):])
		gotT, gotS, sampled, err := ParseTraceparent(traceparent(tid, sid))
		switch {
		case tid.IsZero() || sid.IsZero():
			if err == nil {
				t.Fatalf("zero id rendered to %q parsed", traceparent(tid, sid))
			}
		case err != nil || gotT != tid || gotS != sid || !sampled:
			t.Fatalf("%q parsed to %v %v %v %v", traceparent(tid, sid), gotT, gotS, sampled, err)
		}

		pt, ps, _, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		version := strings.ToLower(h[:2])
		switch {
		case version == "ff":
			t.Fatalf("accepted version ff: %q", h)
		case len(h) > 55 && version == "00":
			t.Fatalf("accepted a version-00 header of %d bytes: %q", len(h), h)
		case len(h) > 55 && h[55] != '-':
			t.Fatalf("accepted %q, whose flags run on past byte 55", h)
		case len(h) == 55:
			if re := version + "-" + pt.String() + "-" + ps.String() + "-" + strings.ToLower(h[53:]); re != strings.ToLower(h) {
				t.Fatalf("accepted %q re-renders to %q", h, re)
			}
		}
	})
}
