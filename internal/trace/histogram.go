// Latency histograms for the two paths that bound campaign wall-clock
// — decode and store commit. The sweep feeds both from every turn's
// telemetry record, sampled or not. A bucket remembers the trace id of
// its latest sampled observation, so a dashboard outlier links
// straight to a trace that produced one like it.
package trace

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// histBuckets are the upper bounds (seconds) of the latency buckets,
// spanning sub-millisecond decode chunks to multi-second commits on a
// stalled disk; +Inf is implicit.
var histBuckets = [15]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Exemplar is the latest observation a bucket saw, tagged with the
// trace it came from (OpenMetrics exemplar semantics).
type Exemplar struct {
	TraceID string
	Value   float64 // seconds
	UnixNS  int64
}

// Histogram is a fixed-bucket latency histogram with lock-free
// observation and per-bucket exemplars. Counts are per-bucket (not
// cumulative); rendering accumulates.
type Histogram struct {
	path      string // metric path label: decode or store_commit
	counts    [len(histBuckets) + 1]atomic.Uint64
	sumNS     atomic.Int64
	exemplars [len(histBuckets) + 1]atomic.Pointer[Exemplar]
}

// NewHistogram returns a histogram for the given path name.
func NewHistogram(path string) *Histogram { return &Histogram{path: path} }

// Path returns the histogram's path label.
func (h *Histogram) Path() string { return h.path }

// Observe records one latency; a non-zero trace id (a sampled
// campaign's) becomes the bucket's exemplar.
func (h *Histogram) Observe(d time.Duration, trace TraceID) {
	sec := d.Seconds()
	i := 0
	for i < len(histBuckets) && sec > histBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(d.Nanoseconds())
	if !trace.IsZero() {
		h.exemplars[i].Store(&Exemplar{TraceID: trace.String(), Value: sec, UnixNS: time.Now().UnixNano()})
	}
}

// Count returns the total observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// WritePrometheus renders the histogram in Prometheus text
// exposition under the given metric name. With exemplars true the
// bucket lines carry OpenMetrics `# {trace_id="…"} value ts`
// exemplars (only valid when the scrape negotiated the OpenMetrics
// content type; the classic 0.0.4 format must omit them).
func (h *Histogram) WritePrometheus(w io.Writer, name string, exemplars bool) {
	fmt.Fprintf(w, "# HELP %s Latency of the %s path.\n", name, h.path)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(histBuckets) {
			le = fmt.Sprintf("%g", histBuckets[i]) // shortest exact decimal
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d", name, le, cum)
		if ex := h.exemplars[i].Load(); exemplars && ex != nil {
			fmt.Fprintf(w, " # {trace_id=%q} %g %.3f", ex.TraceID, ex.Value, float64(ex.UnixNS)/1e9)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// Process-wide path histograms. They aggregate across campaigns
// (standard Prometheus practice).
var (
	DecodeHist = NewHistogram("decode")
	CommitHist = NewHistogram("store_commit")
)

// PathHistograms returns the process-wide path histograms in a stable
// order for the /metrics renderer.
func PathHistograms() []*Histogram {
	return []*Histogram{DecodeHist, CommitHist}
}
