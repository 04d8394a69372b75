// Span export: the one writer behind the CLI's -trace-out and
// -trace-chrome files and the daemon's trace endpoints — NDJSON span
// records, or the Chrome trace-event JSON that the Chrome tracing UI
// and Perfetto load directly, so a campaign trace opens as a timeline
// without any converter.
package trace

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
)

// Write sorts spans in place into start order, ties in recording order,
// and renders them as one NDJSON span record per line or, with chrome
// set, as one Chrome trace-event JSON document.
func Write(w io.Writer, spans []Span, chrome bool) error {
	slices.SortStableFunc(spans, func(a, b Span) int { return cmp.Compare(a.StartNS, b.StartNS) })
	if chrome {
		return writeChrome(w, spans)
	}
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event format. We emit
// complete ("X") events — one per span — plus metadata ("M") events
// naming the process and thread rows.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome renders spans as a Chrome trace-event JSON document
// ({"traceEvents": [...]}). A recorder belongs to one node, which is
// the one process row; each span key is a thread row within it — a
// point's key groups its chunk-run/decode/commit spans on one line, and
// the campaign span's key is its experiment. A span with no key has
// lane 0.
func writeChrome(w io.Writer, spans []Span) error {
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(spans)+8)
	if len(spans) > 0 {
		name := spans[0].Node
		if name == "" {
			name = "local"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", PID: 1,
			Args: map[string]any{"name": name},
		})
	}
	tid := func(key string) int {
		if key == "" {
			return 0
		}
		if id, ok := tids[key]; ok {
			return id
		}
		id := len(tids) + 1
		tids[key] = id
		events = append(events, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: id,
			Args: map[string]any{"name": key},
		})
		return id
	}
	for _, s := range spans {
		t := tid(s.Key)
		args := map[string]any{"trace_id": s.Trace, "span_id": s.ID}
		for k, v := range map[string]string{"parent_id": s.Parent, "key": s.Key, "hash": s.Hash, "detail": s.Detail, "error": s.Err} {
			if v != "" {
				args[k] = v
			}
		}
		if s.Shots != 0 {
			args["shots"] = s.Shots
		}
		events = append(events, chromeEvent{Name: s.Name, Cat: "radqec", Phase: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.DurNS) / 1e3,
			PID: 1, TID: t, Args: args})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
