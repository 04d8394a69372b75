package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public entry point. Parent is the index of the span that
// caused it (-1 for a root), so a layer's self time is its duration
// minus what its children cover.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Shots is the work the span covered, where that is countable.
	Shots int64 `json:"shots,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// spanLog keeps the traced run's spans in memory; they are written out
// once, after measuring. A nil *spanLog records nothing, which is how
// the end-to-end runs keep tracing off.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartNS: int64(time.Since(l.epoch))})
	return len(l.spans) - 1
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int, shots int64) time.Duration {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].EndNS = now
	l.spans[id].Shots = shots
	return l.spans[id].dur()
}

// childTotal sums the durations of the spans called name whose parent
// is one of the spans called parentName.
func (l *spanLog) childTotal(name, parentName string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d time.Duration
	for _, s := range l.spans {
		if s.Name == name && s.Parent >= 0 && l.spans[s.Parent].Name == parentName {
			d += s.dur()
		}
	}
	return d
}

// writeNDJSON dumps the spans, one per line.
func (l *spanLog) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
