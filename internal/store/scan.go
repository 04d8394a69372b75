package store

import (
	"hash/crc32"
	"math"
	"strconv"
	"unicode/utf8"

	"radqec/internal/sweep"
)

// scanVerdict is what scanLine concluded about one segment line.
type scanVerdict int

const (
	// scanDefer: the line is not in the exact shape lineEncoder writes,
	// so decodeLine decides it.
	scanDefer scanVerdict = iota
	// scanOK: the line is in that shape and its checksum matches.
	scanOK
	// scanBad: the line is in that shape and its checksum does not match.
	scanBad
)

// scanLine reads a segment line written by lineEncoder without
// encoding/json: `{"crc":N,"rec":{"kind":K,"hash":H[,"point":{…}]}}`
// with no whitespace, the point's members in struct order and any of
// them omitted, strings free of escapes and invalid UTF-8, integers
// without sign, fraction or exponent, and a non-empty batch_rates
// array. A line it accepts decodes to the record decodeLine would
// return for it; a line it calls bad is one decodeLine rejects too.
// Every other line, including valid JSON another writer formatted, is
// deferred to decodeLine. The record's strings are copies, never views
// of line.
func scanLine(line []byte) (record, scanVerdict) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	sc := lineScanner{b: line}
	if !sc.lit(`{"crc":`) {
		return record{}, scanDefer
	}
	crc, ok := sc.uint()
	if !ok || crc > math.MaxUint32 || !sc.lit(`,"rec":`) {
		return record{}, scanDefer
	}
	var rec record
	start := sc.i
	if !sc.record(&rec) {
		return record{}, scanDefer
	}
	body := line[start:sc.i]
	if !sc.char('}') || sc.i != len(line) {
		return record{}, scanDefer
	}
	if crc32.Checksum(body, castagnoli) != uint32(crc) {
		return record{}, scanBad
	}
	return rec, scanOK
}

// lineScanner walks one line; i is the next unread byte.
type lineScanner struct {
	b []byte
	i int
}

// lit consumes the literal l.
func (sc *lineScanner) lit(l string) bool {
	if len(sc.b)-sc.i < len(l) || string(sc.b[sc.i:sc.i+len(l)]) != l {
		return false
	}
	sc.i += len(l)
	return true
}

// char consumes the byte c.
func (sc *lineScanner) char(c byte) bool {
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// member consumes a member's quoted name and colon (`"shots":`), after
// a comma unless it is the object's first member. It consumes nothing
// when the next member is another.
func (sc *lineScanner) member(name string, first bool) bool {
	at := sc.i
	if (first || sc.char(',')) && sc.lit(name) {
		return true
	}
	sc.i = at
	return false
}

// record reads `{"kind":…,"hash":…[,"point":{…}]}`.
func (sc *lineScanner) record(rec *record) bool {
	if !sc.char('{') || !sc.member(`"kind":`, true) {
		return false
	}
	kind, ok := sc.str()
	if !ok || !sc.member(`"hash":`, false) {
		return false
	}
	hash, ok := sc.str()
	if !ok {
		return false
	}
	// The kinds the store writes share their constants: one allocation
	// fewer per line.
	switch string(kind) {
	case "commit":
		rec.Kind = "commit"
	case "ckpt":
		rec.Kind = "ckpt"
	case "del":
		rec.Kind = "del"
	default:
		rec.Kind = string(kind)
	}
	rec.Hash = string(hash)
	if sc.member(`"point":`, false) {
		rec.Point = new(sweep.CachedPoint)
		if !sc.point(rec.Point) {
			return false
		}
	}
	return sc.char('}')
}

// point reads a sweep.CachedPoint object: each member optional, the
// ones present in struct order.
func (sc *lineScanner) point(p *sweep.CachedPoint) bool {
	if !sc.char('{') {
		return false
	}
	first := true
	if sc.member(`"key":`, first) {
		key, ok := sc.str()
		if !ok {
			return false
		}
		p.Key, first = string(key), false
	}
	for _, f := range [...]struct {
		name string
		v    *int
	}{{`"shots":`, &p.Shots}, {`"errors":`, &p.Errors}, {`"batches":`, &p.Batches}} {
		if sc.member(f.name, first) {
			n, ok := sc.uint()
			if !ok || n > math.MaxInt {
				return false
			}
			*f.v, first = int(n), false
		}
	}
	if sc.member(`"batch_rates":`, first) {
		if !sc.rates(p) {
			return false
		}
		first = false
	}
	if sc.member(`"converged":`, first) {
		switch {
		case sc.lit("true"):
			p.Converged = true
		case sc.lit("false"):
		default:
			return false
		}
	}
	return sc.char('}')
}

// rates reads a non-empty array of numbers into p.BatchRates.
func (sc *lineScanner) rates(p *sweep.CachedPoint) bool {
	if !sc.char('[') {
		return false
	}
	for {
		x, ok := sc.float()
		if !ok {
			return false
		}
		p.BatchRates = append(p.BatchRates, x)
		if sc.char(']') {
			return true
		}
		if !sc.char(',') {
			return false
		}
	}
}

// str reads a string with no escape sequence and valid UTF-8, which
// encoding/json would decode to exactly its bytes. The result aliases
// the line.
func (sc *lineScanner) str() ([]byte, bool) {
	if !sc.char('"') {
		return nil, false
	}
	start, ascii := sc.i, true
	for ; sc.i < len(sc.b); sc.i++ {
		c := sc.b[sc.i]
		if plain[c] {
			continue
		}
		switch {
		case c == '"':
			s := sc.b[start:sc.i]
			sc.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		}
		ascii = false
	}
	return nil, false
}

// plain marks the bytes str passes over without a closer look: printable
// ASCII other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// digits consumes a run of decimal digits and returns how many.
func (sc *lineScanner) digits() int {
	start := sc.i
	for sc.i < len(sc.b) && '0' <= sc.b[sc.i] && sc.b[sc.i] <= '9' {
		sc.i++
	}
	return sc.i - start
}

// uint reads the JSON integer `0|[1-9][0-9]*` of at most 18 digits, so
// it cannot overflow. A fraction or exponent after it fails the caller,
// which expects a delimiter there.
func (sc *lineScanner) uint() (uint64, bool) {
	start := sc.i
	n := sc.digits()
	if n == 0 || n > 18 || (n > 1 && sc.b[start] == '0') {
		return 0, false
	}
	var v uint64
	for _, c := range sc.b[start:sc.i] {
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// float reads a number matching the JSON grammar
// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` and parses it with
// strconv.ParseFloat, as encoding/json does; a number ParseFloat
// rejects (out of range) is not read.
func (sc *lineScanner) float() (float64, bool) {
	start := sc.i
	sc.char('-')
	at := sc.i
	n := sc.digits()
	if n == 0 || (n > 1 && sc.b[at] == '0') {
		return 0, false
	}
	if sc.char('.') && sc.digits() == 0 {
		return 0, false
	}
	if sc.char('e') || sc.char('E') {
		if !sc.char('+') {
			sc.char('-')
		}
		if sc.digits() == 0 {
			return 0, false
		}
	}
	x, err := strconv.ParseFloat(string(sc.b[start:sc.i]), 64)
	return x, err == nil
}
