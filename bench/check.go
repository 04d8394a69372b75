package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// opDigest is what one op's output is compared by. Two ops with the
// same request must agree on all four fields whichever front end served
// them (CLI, daemon, in-process) — the repository's byte-identical
// invariant. Timing and provenance fields are stripped before hashing.
type opDigest struct {
	Table  [sha256.Size]byte // title, header, rows, notes
	Points [sha256.Size]byte // order-independent over the point records
	NPoint int
	Shots  int64
}

// volatileFields are dropped before hashing: elapsed_ms is wall-clock,
// cached says where a result came from, not what it is.
var volatileFields = []string{"elapsed_ms", "cached"}

// normalize re-encodes one NDJSON record with the volatile fields
// removed and keys sorted, so equal records hash equally.
func normalize(line []byte) (kind string, canon []byte, fields map[string]any, err error) {
	if err := json.Unmarshal(line, &fields); err != nil {
		return "", nil, nil, fmt.Errorf("record not JSON: %q", truncate(line, 80))
	}
	kind, _ = fields["type"].(string)
	for _, f := range volatileFields {
		delete(fields, f)
	}
	canon, err = json.Marshal(fields)
	return kind, canon, fields, err
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// digester folds one op's NDJSON stream into its opDigest.
type digester struct {
	table    *[sha256.Size]byte
	points   [][sha256.Size]byte
	shots    int64
	errorRec string
}

func (d *digester) addLine(line []byte) error {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return nil
	}
	kind, canon, fields, err := normalize(line)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(canon)
	switch kind {
	case "point":
		shots, ok := fields["shots"].(float64)
		if !ok {
			return errors.New("point record without shots")
		}
		d.shots += int64(shots)
		d.points = append(d.points, sum)
	case "table":
		if d.table != nil {
			return errors.New("second table record in one op")
		}
		d.table = &sum
	case "error":
		d.errorRec, _ = fields["error"].(string)
		if d.errorRec == "" {
			d.errorRec = "error record"
		}
	default:
		return fmt.Errorf("unexpected record type %q", kind)
	}
	return nil
}

// addRecord digests a typed stream record (the daemon client's view) by
// re-encoding it to the line the CLI would have printed.
func (d *digester) addRecord(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return d.addLine(line)
}

func (d *digester) finish() (opDigest, error) {
	if d.errorRec != "" {
		return opDigest{}, fmt.Errorf("campaign ended in an error record: %s", d.errorRec)
	}
	if d.table == nil {
		return opDigest{}, errors.New("no table record")
	}
	sort.Slice(d.points, func(i, j int) bool { return bytes.Compare(d.points[i][:], d.points[j][:]) < 0 })
	h := sha256.New()
	for i := range d.points {
		h.Write(d.points[i][:])
	}
	out := opDigest{Table: *d.table, NPoint: len(d.points), Shots: d.shots}
	h.Sum(out.Points[:0])
	return out, nil
}

func digestStream(ndjson []byte) (opDigest, error) {
	return digestLines(bytes.Split(ndjson, []byte{'\n'}))
}

func digestLines(lines [][]byte) (opDigest, error) {
	var d digester
	for _, line := range lines {
		if err := d.addLine(line); err != nil {
			return opDigest{}, err
		}
	}
	return d.finish()
}

// references holds the first digest seen per request in this
// invocation; every later op with the same request must match it.
type references map[string]opDigest

// check compares an op against its request's reference, installing it
// as the reference when it is the first. It returns why the op fails,
// or nil.
func (r references) check(request string, got opDigest) error {
	want, ok := r[request]
	if !ok {
		r[request] = got
		return nil
	}
	switch {
	case got.Table != want.Table:
		return fmt.Errorf("%s: table differs from the first op with this request", request)
	case got.NPoint != want.NPoint:
		return fmt.Errorf("%s: %d point records, first op streamed %d", request, got.NPoint, want.NPoint)
	case got.Shots != want.Shots:
		return fmt.Errorf("%s: %d shots, first op streamed %d", request, got.Shots, want.Shots)
	case got.Points != want.Points:
		return fmt.Errorf("%s: point records differ from the first op with this request", request)
	}
	return nil
}

// minTailSamples is how many samples must lie beyond a tail percentile
// for it to be reported: with fewer, the figure is one or two outliers.
const minTailSamples = 10

// tailPercentile returns the p-th percentile (50 < p < 100) by nearest
// rank, refusing when fewer than minTailSamples samples lie beyond it.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if p <= 50 || p >= 100 {
		return 0, fmt.Errorf("tail percentile %g out of range (50, 100)", p)
	}
	n := len(xs)
	beyond := int(float64(n) * (100 - p) / 100)
	if beyond < minTailSamples {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, n, beyond, minTailSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-1-beyond], nil
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the driver measures run-to-run spread. ok is false below two
// samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}
