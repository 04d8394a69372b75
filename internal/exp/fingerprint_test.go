package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/qec"
)

// canonicalHash is the differential oracle for specFingerprint.address:
// the SHA-256 of the value's canonical JSON, obtained the generic way —
// marshal, decode untyped (numbers kept as their literal text), marshal
// again so object keys come out sorted. It was store.CanonicalHash, and
// every address in a store written before the direct encoder is one of
// its outputs.
func canonicalHash(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return canonicalHashJSON(raw)
}

// canonicalHashJSON is canonicalHash over an already-encoded document.
func canonicalHashJSON(raw []byte) (string, error) {
	canon, err := canonicalJSON(raw)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

func canonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v) // map keys sort on encode
}

// TestCanonicalHashStableAcrossFieldReordering keeps the oracle honest:
// it depends on the values only, not on field order or on the Go shape
// that produced the document, and 64-bit seeds survive it digit for
// digit.
func TestCanonicalHashStableAcrossFieldReordering(t *testing.T) {
	hash := func(doc string) string {
		t.Helper()
		h, err := canonicalHashJSON([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ha := hash(`{"seed":18446744073709551615,"phys":0.001,"key":"fig5/x","event":[0,0.5,1]}`)
	if hb := hash(`{"event":[0,0.5,1],"key":"fig5/x","phys":0.001,"seed":18446744073709551615}`); ha != hb {
		t.Fatalf("reordered fields changed the hash: %s vs %s", ha, hb)
	}
	type spec struct {
		Seed  uint64    `json:"seed"`
		Phys  float64   `json:"phys"`
		Key   string    `json:"key"`
		Event []float64 `json:"event"`
	}
	hs, err := canonicalHash(spec{Seed: 18446744073709551615, Phys: 0.001, Key: "fig5/x", Event: []float64{0, 0.5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if hs != ha {
		t.Fatalf("struct vs raw JSON hash mismatch: %s vs %s", hs, ha)
	}
	if hc := hash(`{"event":[0,0.5,1],"key":"fig5/x","phys":0.001,"seed":18446744073709551614}`); hc == ha {
		t.Fatal("distinct seeds hashed identically")
	}
}

// fig5PointSpec is one point of the workload the encoder was written
// for: a fig5 column on the 30-qubit mesh, a 2 250-byte circuit dump
// and a 30-entry decayed event.
func fig5PointSpec(tb testing.TB) (pointSpec, Config) {
	tb.Helper()
	code, err := qec.NewRepetition(5)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 6))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Shots: 2000, Seed: 1, Engine: EngineBatch}.Defaults()
	return p.spec("fig5/rep-(5,1)/t3", cfg, p.strikeAt(Fig5Root, 0.3, true), 12345), cfg
}

// TestFingerprintAllocs pins the cost model of addressing a point: the
// addresser resumes the hash after the campaign's prefix and reuses its
// event bytes and buffers, so what is left is the returned string. The
// generic path this replaced read 135.
func TestFingerprintAllocs(t *testing.T) {
	spec, cfg := fig5PointSpec(t)
	a := newAddresser()
	fp := spec.fingerprint(cfg)
	a.address(&fp)
	if got := testing.AllocsPerRun(200, func() {
		fp := spec.fingerprint(cfg)
		a.address(&fp)
	}); got > 4 {
		t.Errorf("the addresser allocates %v times per point, want at most 4", got)
	}
}

var fingerprintSink string

// BenchmarkFingerprint addresses Figure 5's 160 points as runSpecs
// does, one addresser per campaign, and reports the cost per point.
func BenchmarkFingerprint(b *testing.B) {
	cfg := Config{Shots: 2000, Seed: 1, Engine: EngineBatch}.Defaults()
	specs, _, err := fig5Specs(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		a := newAddresser()
		for _, s := range specs {
			fp := s.fingerprint(cfg)
			fingerprintSink = a.address(&fp)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(specs)), "ns/point")
}

// fuzzEvent decodes the fuzzer's bytes into an event: eight bytes a
// probability, non-finite bit patterns zeroed (they have no JSON form),
// and fewer than eight bytes nil or empty by parity — the two shapes
// omitempty must treat alike.
func fuzzEvent(raw []byte) []float64 {
	if len(raw) < 8 {
		if len(raw)%2 == 0 {
			return nil
		}
		return []float64{}
	}
	ev := make([]float64, len(raw)/8)
	for i := range ev {
		f := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if !math.IsInf(f, 0) && !math.IsNaN(f) {
			ev[i] = f
		}
	}
	return ev
}

// FuzzFingerprintMatchesCanonical holds the direct encoder to the
// generic canonical form on arbitrary field values: every string
// literal it writes equals the oracle's, and the address equals
// canonicalHash of the same struct.
func FuzzFingerprintMatchesCanonical(f *testing.F) {
	floats := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add("fig5/rep-(3,1)/t0", "h 0\ncx 0 1\nm 1\n", "batch", "mwpm", 0.01, 0.0, uint64(42), 2000, 0,
		floats(0, 0.25, 1, 0.1234567890123))
	f.Add("<script>&amp;</script>", "a\"b\\c", "tab\there", "nul\x00bel\x07bs\b ff\f cr\r del\x7f", 0.0, 0.05, uint64(1)<<53+1, 0, 50000,
		floats(math.Copysign(0, -1), 5e-324, 1e-7, 1e21, 9.999999e-7, 1e-6, 123456789012345678901))
	f.Add("line\u2028para\u2029end", "bad\xff\xfeutf8\xc0\xaf \xed\xa0\x80 \xef\xbf\xbd", "é世界😀", "", math.Copysign(0, -1), math.Copysign(0, -1), uint64(math.MaxUint64), -1, -7,
		[]byte{})
	f.Add("", "", "", "", 1e-7, 1e21, uint64(math.MaxUint64-1), math.MaxInt, math.MinInt, []byte{1})
	f.Add("k", "c", "e", "d", 0.1234567890123, 2.5e-9, uint64(0), 1, 1, floats(make([]float64, 65)...))
	f.Fuzz(func(t *testing.T, key, circuit, engine, decoder string, phys, ci float64, seed uint64, shots, maxShots int, event []byte) {
		if math.IsInf(phys, 0) || math.IsNaN(phys) || math.IsInf(ci, 0) || math.IsNaN(ci) {
			t.Skip("no JSON form")
		}
		for _, s := range []string{key, circuit, engine, decoder} {
			raw, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := canonicalJSON(raw)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
				t.Fatalf("string %q written as %s, canonical form %s", s, got, want)
			}
		}
		fp := specFingerprint{
			V: fingerprintVersion, Key: key, Circuit: appendJSONString(nil, circuit),
			Phys: phys, Event: fuzzEvent(event), Seed: seed, Engine: engine, Decoder: decoder,
			Shots: shots, CI: ci, MaxShots: maxShots, Align: 512,
		}
		// One point alone, then a two-point campaign through one
		// addresser: the second point shares the prefix, differs in key,
		// seed and phys, and carries the event reversed (the same bits
		// when it is a palindrome); the first point then comes back.
		second := fp
		second.Key, second.Seed, second.Phys = key+"/2", ^seed, ci
		second.Event = slices.Clone(fp.Event)
		slices.Reverse(second.Event)
		check := func(a *addresser, fp *specFingerprint) {
			t.Helper()
			want, err := canonicalHash(fp)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.address(fp); got != want {
				raw, _ := json.Marshal(fp)
				canon, _ := canonicalJSON(raw)
				t.Fatalf("address %s, canonical hash %s\ndirect:    %s\ncanonical: %s", got, want, canonicalDoc(fp), canon)
			}
		}
		check(newAddresser(), &fp)
		campaign := newAddresser()
		for _, p := range []*specFingerprint{&fp, &second, &fp} {
			check(campaign, p)
		}
	})
}

// canonicalDoc is the whole document the addresser hashes.
func canonicalDoc(fp *specFingerprint) []byte {
	return fp.appendSuffix(appendEvent(fp.appendPrefix(nil), fp.Event))
}
