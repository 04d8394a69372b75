package exp

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"strconv"
	"strings"
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
//
// 3: a strike with probability 1 on a superposed site is compiled into
// the batched engine's reference (stab.StruckOf) instead of drawn as a
// branch coin, which moved every batched point with such a strike (and
// fig8's point keys gained their cell prefix); results cached under 2
// are the approximation's sample.
const fingerprintVersion = 3

// specFingerprint is the canonical serialized identity of one sweep
// point: everything that determines its result — the routed circuit,
// the fault, the seed, the resolved engine and decoder, and the full
// shot-allocation policy. Its address is the SHA-256 of its canonical
// JSON: keys sorted, no whitespace, omitempty fields skipped, strings
// and numbers as encoding/json writes them. Three appenders write those
// bytes directly, in key order: appendPrefix the fields every point of
// one prepared circuit shares within a campaign, appendEvent the event,
// appendSuffix the per-point rest. FuzzFingerprintMatchesCanonical
// holds them to the generic marshal -> untyped decode -> re-marshal of
// this struct, the form every address in an existing store was
// computed under.
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

// appendPrefix appends the document's opening and the align, ci,
// circuit, decoder and engine fields.
func (fp *specFingerprint) appendPrefix(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"align":`...), int64(fp.Align), 10)
	if fp.CI != 0 {
		b = appendJSONFloat(append(b, `,"ci":`...), fp.CI)
	}
	b = append(append(b, `,"circuit":`...), fp.Circuit...)
	b = appendJSONString(append(b, `,"decoder":`...), fp.Decoder)
	return appendJSONString(append(b, `,"engine":`...), fp.Engine)
}

// appendEvent appends the event field, or nothing for an empty event.
func appendEvent(b []byte, event []float64) []byte {
	if len(event) == 0 {
		return b
	}
	b = append(b, `,"event":`...)
	sep := byte('[')
	for _, p := range event {
		b = appendJSONFloat(append(b, sep), p)
		sep = ','
	}
	return append(b, ']')
}

// appendSuffix appends the key, max_shots, phys, seed, shots and v
// fields and closes the document.
func (fp *specFingerprint) appendSuffix(b []byte) []byte {
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

// addresser computes the content addresses of one campaign's points.
// Within a runSpecs call every point of a prepared circuit shares the
// document prefix and many points share an event, so the addresser
// hashes each prefix once and resumes the SHA-256 state after it for
// every point, and formats each distinct event once. It lives for one
// call and serves one goroutine; nothing it holds outlives the call.
type addresser struct {
	h        stateHash
	prefixes map[prefixKey][]byte // marshalled SHA-256 state after the prefix
	events   map[string][]byte    // appendEvent's bytes, by the probabilities' bits
	bits     []byte
	buf      []byte
	sum      [sha256.Size]byte
	hex      [2 * sha256.Size]byte
}

// stateHash is a hash whose running state can be saved and restored.
type stateHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// prefixKey identifies a document prefix. The circuit is identified by
// its literal's first byte (a JSON string literal is never empty):
// prepared.circuitLiteral memoises one literal per prepared circuit and
// never rewrites it.
type prefixKey struct {
	circuit         *byte
	ci              uint64
	engine, decoder string
}

func newAddresser() *addresser {
	return &addresser{
		h:        sha256.New().(stateHash),
		prefixes: map[prefixKey][]byte{},
		events:   map[string][]byte{},
	}
}

// address returns the SHA-256 of fp's canonical JSON, in hex.
func (a *addresser) address(fp *specFingerprint) string {
	pk := prefixKey{&fp.Circuit[0], math.Float64bits(fp.CI), fp.Engine, fp.Decoder}
	if state, ok := a.prefixes[pk]; ok {
		if err := a.h.UnmarshalBinary(state); err != nil {
			panic(err) // the state is one this hash marshalled
		}
	} else {
		a.h.Reset()
		a.buf = fp.appendPrefix(a.buf[:0])
		a.h.Write(a.buf)
		state, err := a.h.MarshalBinary()
		if err != nil {
			panic(err) // SHA-256 always marshals
		}
		a.prefixes[pk] = state
	}
	if len(fp.Event) > 0 {
		a.bits = a.bits[:0]
		for _, p := range fp.Event {
			a.bits = binary.LittleEndian.AppendUint64(a.bits, math.Float64bits(p))
		}
		ev, ok := a.events[string(a.bits)]
		if !ok {
			ev = appendEvent(nil, fp.Event)
			a.events[string(a.bits)] = ev
		}
		a.h.Write(ev)
	}
	a.buf = fp.appendSuffix(a.buf[:0])
	a.h.Write(a.buf)
	hex.Encode(a.hex[:], a.h.Sum(a.sum[:0]))
	return string(a.hex[:])
}

// fingerprint returns the point's canonical identity under cfg. Specs
// that override the decode function are still distinguished, because
// every such spec carries the variant in its key (e.g. the
// ablation-decoder rows).
func (s pointSpec) fingerprint(cfg Config) specFingerprint {
	fp := specFingerprint{
		V:        fingerprintVersion,
		Key:      s.key,
		Circuit:  s.prep.circuitLiteral(),
		Phys:     s.phys,
		Seed:     s.seed,
		Engine:   cfg.Engine,
		Decoder:  cfg.Decoder,
		Shots:    cfg.Shots,
		CI:       cfg.CI,
		MaxShots: cfg.MaxShots,
		Align:    frame.TileShots,
	}
	if s.ev != nil {
		fp.Event = s.ev.Probs
	}
	return fp
}
