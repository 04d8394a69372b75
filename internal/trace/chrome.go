// Chrome trace-event export: converts recorded spans into the JSON
// the Chrome tracing UI and Perfetto load directly, so a campaign
// trace opens as a timeline without any converter.
package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format. We emit
// complete ("X") events — one per span — plus metadata ("M") events
// naming each node's process row.
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

// WriteChrome renders spans as a Chrome trace-event JSON document
// ({"traceEvents": [...]}). Each node becomes a process row and each
// point a thread row within it, so the timeline groups a point's
// chunk-run/decode/commit spans on one line; the campaign span (no
// point key) has lane 0.
func WriteChrome(w io.Writer, spans []Span) error {
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartNS < sorted[j].StartNS })

	pids := map[string]int{}
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(sorted)+8)
	pid := func(node string) int {
		if id, ok := pids[node]; ok {
			return id
		}
		id := len(pids) + 1
		pids[node] = id
		name := node
		if name == "" {
			name = "local"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", PID: id,
			Args: map[string]any{"name": name},
		})
		return id
	}
	tid := func(node, key string) int {
		if key == "" {
			return 0
		}
		lane := node + "\x00" + key
		if id, ok := tids[lane]; ok {
			return id
		}
		id := len(tids) + 1
		tids[lane] = id
		events = append(events, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pids[node], TID: id,
			Args: map[string]any{"name": key},
		})
		return id
	}
	for _, s := range sorted {
		p := pid(s.Node)
		args := map[string]any{
			"trace_id": s.Trace,
			"span_id":  s.ID,
		}
		if s.Parent != "" {
			args["parent_id"] = s.Parent
		}
		if s.Key != "" {
			args["key"] = s.Key
		}
		if s.Hash != "" {
			args["hash"] = s.Hash
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		if s.Shots != 0 {
			args["shots"] = s.Shots
		}
		if s.Err != "" {
			args["error"] = s.Err
		}
		events = append(events, chromeEvent{
			Name:  s.Name,
			Cat:   "radqec",
			Phase: "X",
			TS:    float64(s.StartNS) / 1e3,
			Dur:   float64(s.DurNS) / 1e3,
			PID:   p,
			TID:   tid(s.Node, s.Key),
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
