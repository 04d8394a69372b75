package exp

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
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

// AppendJSON appends the record's NDJSON line, byte for byte what
// json.Encoder.Encode writes: json.Marshal's bytes and a newline. A
// non-finite rate or bound is the error json.Marshal returns, and
// appends nothing.
func (r *PointRecord) AppendJSON(b []byte) ([]byte, error) {
	for _, f := range [...]float64{r.Rate, r.CILo, r.CIHi, r.HalfWidth} {
		if err := checkFinite(f); err != nil {
			return b, err
		}
	}
	b = appendMarshalString(append(b, `{"type":`...), r.Type)
	b = appendMarshalString(append(b, `,"experiment":`...), r.Experiment)
	b = appendMarshalString(append(b, `,"key":`...), r.Key)
	b = strconv.AppendInt(append(b, `,"shots":`...), int64(r.Shots), 10)
	b = strconv.AppendInt(append(b, `,"errors":`...), int64(r.Errors), 10)
	b = appendJSONFloat(append(b, `,"rate":`...), r.Rate)
	b = appendJSONFloat(append(b, `,"ci_lo":`...), r.CILo)
	b = appendJSONFloat(append(b, `,"ci_hi":`...), r.CIHi)
	b = appendJSONFloat(append(b, `,"half_width":`...), r.HalfWidth)
	b = strconv.AppendInt(append(b, `,"batches":`...), int64(r.Batches), 10)
	b = strconv.AppendBool(append(b, `,"converged":`...), r.Converged)
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, "}\n"...), nil
}

// checkFinite returns the error encoding/json reports for a float it
// cannot write, or nil.
func checkFinite(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
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

// AppendJSON appends the record's NDJSON line, byte for byte what
// json.Encoder.Encode writes: json.Marshal's bytes and a newline, a nil
// header or row as null, and no notes omitted.
func (r *TableRecord) AppendJSON(b []byte) []byte {
	b = appendMarshalString(append(b, `{"type":`...), r.Type)
	b = appendMarshalString(append(b, `,"experiment":`...), r.Experiment)
	b = appendMarshalString(append(b, `,"title":`...), r.Title)
	b = appendStrings(append(b, `,"header":`...), r.Header)
	b = append(b, `,"rows":`...)
	if r.Rows == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStrings(b, row)
		}
		b = append(b, ']')
	}
	if len(r.Notes) > 0 {
		b = appendStrings(append(b, `,"notes":`...), r.Notes)
	}
	b = strconv.AppendInt(append(b, `,"elapsed_ms":`...), r.ElapsedMS, 10)
	return append(b, "}\n"...)
}

// appendStrings appends a string slice as json.Marshal writes it, nil as
// null.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendMarshalString(b, s)
	}
	return append(b, ']')
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
