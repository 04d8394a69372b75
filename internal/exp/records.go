package exp

import (
	"time"

	"radqec/internal/sweep"
)

// PointRecord is the streaming JSON view of one completed sweep point
// — the record the CLI's -json mode and the daemon's campaign stream
// both emit, so their outputs are field-for-field identical.
type PointRecord struct {
	Type       string  `json:"type"`
	Experiment string  `json:"experiment"`
	Key        string  `json:"key"`
	Shots      int     `json:"shots"`
	Errors     int     `json:"errors"`
	Rate       float64 `json:"rate"`
	CILo       float64 `json:"ci_lo"`
	CIHi       float64 `json:"ci_hi"`
	HalfWidth  float64 `json:"half_width"`
	Batches    int     `json:"batches"`
	Converged  bool    `json:"converged"`
	Cached     bool    `json:"cached,omitempty"`
}

// NewPointRecord projects a sweep result onto its streaming record.
func NewPointRecord(experiment string, r sweep.Result) PointRecord {
	return PointRecord{
		Type:       "point",
		Experiment: experiment,
		Key:        r.Key,
		Shots:      r.Shots,
		Errors:     r.Errors,
		Rate:       r.Rate(),
		CILo:       r.CILo,
		CIHi:       r.CIHi,
		HalfWidth:  r.HalfWidth(),
		Batches:    r.Batches,
		Converged:  r.Converged,
		Cached:     r.Cached,
	}
}

// TableRecord is the JSON view of a finished experiment table.
type TableRecord struct {
	Type       string     `json:"type"`
	Experiment string     `json:"experiment"`
	Title      string     `json:"title"`
	Header     []string   `json:"header"`
	Rows       [][]string `json:"rows"`
	Notes      []string   `json:"notes,omitempty"`
	ElapsedMS  int64      `json:"elapsed_ms"`
}

// NewTableRecord projects a finished table onto its JSON record.
func NewTableRecord(experiment string, t *Table, elapsed time.Duration) TableRecord {
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	return TableRecord{
		Type:       "table",
		Experiment: experiment,
		Title:      t.Title,
		Header:     t.Header,
		Rows:       rows,
		Notes:      t.Notes,
		ElapsedMS:  elapsed.Milliseconds(),
	}
}
