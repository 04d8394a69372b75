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
// one prepared circuit shares under one configuration, appendEvent the
// event, appendSuffix the per-point rest. FuzzFingerprintMatchesCanonical
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
	// memo is the address memo of the prepared circuit whose literal
	// Circuit is. It is not part of the document.
	memo *addressMemo
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
// That is the canonical form an address hashes.
func appendJSONString(b []byte, s string) []byte {
	return appendQuoted(b, s, false)
}

// appendMarshalString appends s as json.Marshal writes a Go string:
// appendJSONString, except that each invalid UTF-8 byte is the escape
// \ufffd.
func appendMarshalString(b []byte, s string) []byte {
	return appendQuoted(b, s, true)
}

// appendQuoted appends s as a JSON string literal, writing an invalid
// UTF-8 byte as the escape \ufffd when escapeInvalid is set and as the
// rune U+FFFD otherwise. A run of bytes that need no escaping is copied
// in one step; the rest go rune by rune.
func appendQuoted(b []byte, s string, escapeInvalid bool) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && jsonSafe[s[j]] {
			j++
		}
		b = append(b, s[i:j]...)
		if j == len(s) {
			break
		}
		r, size := utf8.DecodeRuneInString(s[j:])
		i = j + size
		short := strings.IndexRune("\"\\\b\f\n\r\t", r)
		switch {
		case short >= 0:
			b = append(b, '\\', `"\bfnrt`[short])
		case r < ' ' || r == '<' || r == '>' || r == '&' || r == '\u2028' || r == '\u2029' ||
			escapeInvalid && r == utf8.RuneError && size == 1:
			b = append(b, '\\', 'u', hexDigits[r>>12], hexDigits[r>>8&0xF], hexDigits[r>>4&0xF], hexDigits[r&0xF])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// jsonSafe marks the bytes appendQuoted copies as they are:
// printable ASCII other than `"`, `\`, `<`, `>` and `&`.
var jsonSafe = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

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

// addressMemo holds, for one prepared circuit, the marshalled SHA-256
// state after a document's prefix and event, so a point already seen in
// any campaign hashes only its ~100-byte suffix. An entry's key is the
// rest of the prefix and the event (memoKey); an entry with no event is
// the prefix's own state, from which every new event's state resumes.
// Every campaign and goroutine addressing the circuit shares the memo.
// It stops growing at addressMemoCap entries; past that, an event it
// does not hold is hashed from the prefix state on every call.
type addressMemo struct {
	mu     sync.RWMutex
	states map[string][]byte
}

// addressMemoCap bounds one prepared circuit's address memo. An entry is
// its key (at most 29 bytes of align, ci and the engine and decoder
// names, then 8 bytes per event probability: at most 549 bytes, a
// 576-byte allocation, on Brooklyn's 65 qubits), a 108-byte SHA-256
// state (a 112-byte allocation) and about 52 bytes of map slot, so at
// most ~740 bytes: a full memo holds ~380 KB, and preparedCap full memos
// ~24 MB. Every experiment at default flags, run one after another,
// leaves at most 244 entries on any circuit (rep-(11,1) on the 5x6
// mesh); Figure 5 leaves 11 on each of its two.
const addressMemoCap = 512

// load returns the state stored under key, or nil.
func (m *addressMemo) load(key []byte) []byte {
	m.mu.RLock()
	state := m.states[string(key)]
	m.mu.RUnlock()
	return state
}

// store keeps state under key unless the memo is full.
func (m *addressMemo) store(key, state []byte) {
	m.mu.Lock()
	if m.states == nil {
		m.states = map[string][]byte{}
	}
	if len(m.states) < addressMemoCap {
		m.states[string(key)] = state
	}
	m.mu.Unlock()
}

// memoKey appends fp's memo key: the prefix's fields other than the
// circuit (align, ci, engine and decoder, the names length-prefixed) and
// then the event's probability bits. It returns the key and its length
// without the event, the prefix's own key.
func (fp *specFingerprint) memoKey(b []byte) ([]byte, int) {
	b = binary.LittleEndian.AppendUint64(b, uint64(fp.Align))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(fp.CI))
	b = append(binary.AppendUvarint(b, uint64(len(fp.Engine))), fp.Engine...)
	b = append(binary.AppendUvarint(b, uint64(len(fp.Decoder))), fp.Decoder...)
	n := len(b)
	for _, p := range fp.Event {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	return b, n
}

// addresser computes content addresses through the prepared circuits'
// memos. It holds only a hash and scratch buffers, serves one goroutine,
// and nothing it holds outlives it.
type addresser struct {
	h   stateHash
	key []byte
	buf []byte
	sum [sha256.Size]byte
	hex [2 * sha256.Size]byte
}

// stateHash is a hash whose running state can be saved and restored.
type stateHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

func newAddresser() *addresser {
	return &addresser{h: sha256.New().(stateHash)}
}

// address returns the SHA-256 of fp's canonical JSON, in hex, resuming
// the state after its prefix and event from fp.memo.
func (a *addresser) address(fp *specFingerprint) string {
	var n int
	a.key, n = fp.memoKey(a.key[:0])
	if state := fp.memo.load(a.key); state != nil {
		a.restore(state)
	} else {
		a.hashEvent(fp, n)
	}
	a.buf = fp.appendSuffix(a.buf[:0])
	a.h.Write(a.buf)
	hex.Encode(a.hex[:], a.h.Sum(a.sum[:0]))
	return string(a.hex[:])
}

// hashEvent leaves a.h after fp's prefix and event, on a memo miss for
// a.key, whose first n bytes are the prefix's key. It resumes the
// prefix's state, or hashes the prefix and stores its state, then
// writes the event and stores the state after it.
func (a *addresser) hashEvent(fp *specFingerprint, n int) {
	if state := fp.memo.load(a.key[:n]); state != nil {
		a.restore(state)
	} else {
		a.h.Reset()
		a.buf = fp.appendPrefix(a.buf[:0])
		a.h.Write(a.buf)
		fp.memo.store(a.key[:n], a.save())
	}
	if n == len(a.key) {
		return // no event: the prefix's state is the entry
	}
	a.buf = appendEvent(a.buf[:0], fp.Event)
	a.h.Write(a.buf)
	fp.memo.store(a.key, a.save())
}

func (a *addresser) restore(state []byte) {
	if err := a.h.UnmarshalBinary(state); err != nil {
		panic(err) // the state is one this hash marshalled
	}
}

func (a *addresser) save() []byte {
	state, err := a.h.MarshalBinary()
	if err != nil {
		panic(err) // SHA-256 always marshals
	}
	return state
}

// fingerprint returns the point's canonical identity under cfg. Its
// decoder is always DecoderMWPM, kept in the document so that no
// address moves. Specs that override the decode function are still
// distinguished, because every such spec carries the variant in its key
// (e.g. the ablation-decoder rows).
func (s pointSpec) fingerprint(cfg Config) specFingerprint {
	fp := specFingerprint{
		V:        fingerprintVersion,
		Key:      s.key,
		Circuit:  s.prep.circuitLiteral(),
		Phys:     s.phys,
		Seed:     s.seed,
		Engine:   cfg.Engine,
		Decoder:  DecoderMWPM,
		Shots:    cfg.Shots,
		CI:       cfg.CI,
		MaxShots: cfg.MaxShots,
		Align:    frame.TileShots,
		memo:     &s.prep.addrMemo,
	}
	if s.ev != nil {
		fp.Event = s.ev.Probs
	}
	return fp
}
