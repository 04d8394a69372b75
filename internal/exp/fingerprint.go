package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"radqec/internal/frame"
)

// fingerprintVersion versions the canonical spec serialization. Bump
// it whenever the meaning of a cached result changes — a new
// allocation policy, a different engine shot-stream contract — so a
// stale store misses instead of serving results computed under
// different semantics.
//
// 2: the batched engine samples strike probabilities in (0, 1/32) by
// geometric gaps and depolarizing rates >= 1/32 by Bernoulli words
// (noise.LaneSampler), which moved the shot streams of every point with
// such a probability; results cached under 1 are a different sample.
const fingerprintVersion = 2

// specFingerprint is the canonical serialized identity of one sweep
// point: everything that determines its result — the routed circuit,
// the fault, the seed, the resolved engine and decoder, and the full
// shot-allocation policy. Its address is the SHA-256 of its canonical
// JSON: keys sorted, no whitespace, omitempty fields skipped, strings
// and numbers as encoding/json writes them. appendCanonical writes
// those bytes directly; FuzzFingerprintMatchesCanonical holds it to the
// generic marshal -> untyped decode -> re-marshal of this struct, the
// form every address in an existing store was computed under.
type specFingerprint struct {
	V   int    `json:"v"`
	Key string `json:"key"`
	// Circuit is the circuit dump already written as a JSON string
	// literal (prepared.circuitLiteral), copied verbatim into the
	// document.
	Circuit  json.RawMessage `json:"circuit"`
	Phys     float64         `json:"phys"`
	Event    []float64       `json:"event,omitempty"`
	Seed     uint64          `json:"seed"`
	Engine   string          `json:"engine"`
	Decoder  string          `json:"decoder"`
	Shots    int             `json:"shots"`
	CI       float64         `json:"ci,omitempty"`
	MaxShots int             `json:"max_shots,omitempty"`
	Align    int             `json:"align"`
}

// appendCanonical appends the fingerprint's canonical JSON to b.
func (fp *specFingerprint) appendCanonical(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"align":`...), int64(fp.Align), 10)
	if fp.CI != 0 {
		b = appendJSONFloat(append(b, `,"ci":`...), fp.CI)
	}
	b = append(append(b, `,"circuit":`...), fp.Circuit...)
	b = appendJSONString(append(b, `,"decoder":`...), fp.Decoder)
	b = appendJSONString(append(b, `,"engine":`...), fp.Engine)
	if len(fp.Event) > 0 {
		b = append(b, `,"event":`...)
		sep := byte('[')
		for _, p := range fp.Event {
			b = appendJSONFloat(append(b, sep), p)
			sep = ','
		}
		b = append(b, ']')
	}
	b = appendJSONString(append(b, `,"key":`...), fp.Key)
	if fp.MaxShots != 0 {
		b = strconv.AppendInt(append(b, `,"max_shots":`...), int64(fp.MaxShots), 10)
	}
	b = appendJSONFloat(append(b, `,"phys":`...), fp.Phys)
	b = strconv.AppendUint(append(b, `,"seed":`...), fp.Seed, 10)
	b = strconv.AppendInt(append(b, `,"shots":`...), int64(fp.Shots), 10)
	b = strconv.AppendInt(append(b, `,"v":`...), int64(fp.V), 10)
	return append(b, '}')
}

// appendJSONString appends s as encoding/json writes a decoded string:
// `"`, `\` and control bytes escaped (the five short forms, \u00XX
// otherwise), `<`, `>`, `&`, U+2028 and U+2029 as \uXXXX, and each
// invalid UTF-8 byte as U+FFFD — which is what ranging over s yields.
func appendJSONString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	for _, r := range s {
		short := strings.IndexRune("\"\\\b\f\n\r\t", r)
		switch {
		case short >= 0:
			b = append(b, '\\', `"\bfnrt`[short])
		case r < ' ' || r == '<' || r == '>' || r == '&' || r == '\u2028' || r == '\u2029':
			b = append(b, '\\', 'u', hexDigits[r>>12], hexDigits[r>>8&0xF], hexDigits[r>>4&0xF], hexDigits[r&0xF])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest digits that round-trip, in 'f' format unless the magnitude
// is below 1e-6 or at least 1e21, then 'e' with a one-digit negative
// exponent unpadded (e-7, not e-07). Non-finite values have no JSON
// form; the flag, request and probability guards keep them out of
// specs.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b = append(b[:n-2], b[n-1])
	}
	return b
}

// fingerprintBufs recycles the document buffers: a daemon replaying a
// stored campaign addresses every point of it and does nothing else.
var fingerprintBufs = sync.Pool{New: func() any { return new([]byte) }}

// address returns the SHA-256 of the canonical JSON, in hex.
func (fp *specFingerprint) address() string {
	buf := fingerprintBufs.Get().(*[]byte)
	*buf = fp.appendCanonical((*buf)[:0])
	sum := sha256.Sum256(*buf)
	fingerprintBufs.Put(buf)
	return hex.EncodeToString(sum[:])
}

// fingerprint returns the point's content address under cfg. Specs
// that override the decode function are still distinguished, because
// every such spec carries the variant in its key (e.g. the
// ablation-decoder rows).
func (s pointSpec) fingerprint(cfg Config) string {
	fp := specFingerprint{
		V:        fingerprintVersion,
		Key:      s.key,
		Circuit:  s.prep.circuitLiteral(),
		Phys:     s.phys,
		Seed:     s.seed,
		Engine:   s.engineFor(cfg.Engine),
		Decoder:  cfg.DecoderName(),
		Shots:    cfg.Shots,
		CI:       cfg.CI,
		MaxShots: cfg.MaxShots,
		Align:    frame.TileShots,
	}
	if s.ev != nil {
		fp.Event = s.ev.Probs
	}
	return fp.address()
}
