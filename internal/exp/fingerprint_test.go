package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
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

// TestFingerprintAllocs pins the cost model of addressing a point the
// circuit's memo has seen: the addresser resumes the hash after the
// prefix and event and reuses its buffers, so what is left is the
// returned string. The generic path this replaced read 135.
func TestFingerprintAllocs(t *testing.T) {
	spec, cfg := fig5PointSpec(t)
	a := newAddresser()
	fp := spec.fingerprint(cfg)
	a.address(&fp)
	if got := testing.AllocsPerRun(200, func() {
		fp := spec.fingerprint(cfg)
		a.address(&fp)
	}); got > 1 {
		t.Errorf("the addresser allocates %v times per point, want at most 1", got)
	}
}

var fingerprintSink string

// BenchmarkFingerprint addresses Figure 5's 160 points as a replayed
// campaign's runSpecs does: one addresser per campaign, through the
// prepared circuits' memos, which the first campaign warms. It reports
// the cost per point.
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

// TestAddressMemoMatchesFreshAddresser addresses every spec of Figure 5
// and of the memory experiment, and every Figure 8 cell's root × time
// grid, through one shared memo per prepared circuit, from two
// goroutines walking the specs in opposite orders, and holds each
// address to a fresh addresser's on an empty memo. A memo filled past
// its cap stops growing and still addresses every event, stored or not,
// correctly.
func TestAddressMemoMatchesFreshAddresser(t *testing.T) {
	cfg := Config{Shots: 2000, Seed: 1, Engine: EngineBatch}.Defaults()
	specs, _, err := fig5Specs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cfg.repetition(11)
	if err != nil {
		t.Fatal(err)
	}
	xxzz, err := cfg.xxzz(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		code  *qec.Code
		topos []arch.Topology
	}{{rep, Fig8RepTopologies()}, {xxzz, Fig8XXZZTopologies()}} {
		for ti, topo := range cell.topos {
			p, err := prepare(cell.code, topo)
			if err != nil {
				t.Fatal(err)
			}
			_, cs := p.rootSpecs(cfg, "fig8/"+cell.code.Name+"/"+topo.Name, cfg.Seed+uint64(ti))
			specs = append(specs, cs...)
		}
	}
	mem, _, err := memorySpecs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, mem...)

	fresh := func(fp specFingerprint) string {
		fp.memo = new(addressMemo)
		return newAddresser().address(&fp)
	}
	want := make([]string, len(specs))
	memos := map[*prepared]*addressMemo{}
	for i, s := range specs {
		want[i] = fresh(s.fingerprint(cfg))
		if memos[s.prep] == nil {
			memos[s.prep] = new(addressMemo)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := newAddresser()
			for n := range specs {
				i := n
				if g == 1 {
					i = len(specs) - 1 - n
				}
				fp := specs[i].fingerprint(cfg)
				fp.memo = memos[specs[i].prep]
				if got := a.address(&fp); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d: %s addressed %s through the memo, %s fresh", g, specs[i].key, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// One circuit, more distinct events than the cap, twice over.
	p := specs[0].prep
	memo := new(addressMemo)
	a := newAddresser()
	for pass := range 2 {
		for i := range addressMemoCap + 100 {
			s := p.spec("cap", cfg, p.strikeAt(Fig5Root, float64(i+1)/1024, true), uint64(i))
			fp := s.fingerprint(cfg)
			w := fresh(fp)
			fp.memo = memo
			if got := a.address(&fp); got != w {
				t.Fatalf("pass %d event %d: %s through a full memo, %s fresh", pass, i, got, w)
			}
		}
		if n := memo.len(); n != addressMemoCap {
			t.Fatalf("pass %d: memo holds %d entries, cap %d", pass, n, addressMemoCap)
		}
	}
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
	ev := rawFloats(raw)
	for i, f := range ev {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			ev[i] = 0
		}
	}
	return ev
}

// len reports the memo's entry count.
func (m *addressMemo) len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.states)
}

// rawFloats decodes the fuzzer's bytes eight at a time into floats,
// non-finite bit patterns kept.
func rawFloats(raw []byte) []float64 {
	fs := make([]float64, len(raw)/8)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return fs
}

// checkRecords holds the record appenders to json.Marshal and a newline
// on a point and a table record built from the fuzzer's values: the
// same bytes, appended after what the buffer held, or the same error
// and nothing appended. The seed's low bits pick nil, empty or filled
// headers, rows and notes, and the converged and cached flags.
func checkRecords(t *testing.T, strs []string, phys, ci float64, seed uint64, shots, maxShots int, event []byte) {
	t.Helper()
	check := func(v any, got []byte, err error) {
		t.Helper()
		want, werr := json.Marshal(v)
		switch {
		case (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error():
			t.Fatalf("%+v: appender error %v, json.Marshal error %v", v, err, werr)
		case err != nil:
			if string(got) != "prev" {
				t.Fatalf("%+v: failed append left %q", v, got)
			}
		case string(got) != "prev"+string(want)+"\n":
			t.Fatalf("%+v written as\n%s\njson.Marshal:\n%s", v, got, want)
		}
	}
	bounds := append(rawFloats(event), 0, 0)
	pt := PointRecord{
		Type: strs[2], Experiment: strs[3], Key: strs[0], Shots: shots, Errors: maxShots,
		Rate: phys, CILo: ci, CIHi: bounds[0], HalfWidth: bounds[1],
		Batches: int(seed >> 8), Converged: seed&1 != 0, Cached: seed&2 != 0,
	}
	got, err := pt.AppendJSON([]byte("prev"))
	check(pt, got, err)

	shape := func(bits uint64) []string {
		switch bits & 3 {
		case 0:
			return nil
		case 1:
			return []string{}
		case 2:
			return strs[:2]
		}
		return strs
	}
	tab := TableRecord{Type: "table", Experiment: strs[2], Title: strs[1],
		Header: shape(seed >> 2), Notes: shape(seed >> 4), ElapsedMS: int64(shots)}
	switch seed >> 6 & 3 {
	case 1:
		tab.Rows = [][]string{}
	case 2, 3:
		tab.Rows = [][]string{shape(seed >> 2), nil, strs}
	}
	check(tab, tab.AppendJSON([]byte("prev")), nil)
}

// FuzzFingerprintMatchesCanonical holds the direct encoders to
// encoding/json on arbitrary field values. Addresses: every string
// literal the fingerprint writes equals the generic canonical form's,
// and the address equals canonicalHash of the same struct, alone and
// through a prepared-circuit memo, cold and warm. Records: the point
// and table appenders write json.Marshal's bytes and a newline, and fail
// exactly where it fails.
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
	f.Add("inf", "bounds", "point", "table", 5e-324, 1e21, uint64(0x57), 3, 4, floats(math.Inf(1), math.NaN()))
	f.Add("nan", "rate", "\xff", "<&>", math.NaN(), math.Inf(-1), uint64(0xF2), 0, 0, floats(math.Copysign(0, -1)))
	f.Add("half", "width", "point", "table", 0.5, 0.25, uint64(0x15), 1, 0, floats(0.75, math.NaN()))
	f.Fuzz(func(t *testing.T, key, circuit, engine, decoder string, phys, ci float64, seed uint64, shots, maxShots int, event []byte) {
		checkRecords(t, []string{key, circuit, engine, decoder}, phys, ci, seed, shots, maxShots, event)
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
		// One point alone on an empty memo, then a two-point campaign
		// through one memo: the second point shares the prefix, differs
		// in key, seed and phys, and carries the event reversed (the same
		// bits when it is a palindrome); the first point then comes back.
		// A second campaign through the now warm memo must find every
		// entry.
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
		fp.memo = new(addressMemo)
		check(newAddresser(), &fp)
		memo := new(addressMemo)
		fp.memo, second.memo = memo, memo
		entries := 0
		for campaign := range 2 {
			a := newAddresser()
			for _, p := range []*specFingerprint{&fp, &second, &fp} {
				check(a, p)
			}
			if n := memo.len(); campaign == 1 && n != entries {
				t.Fatalf("the warm campaign grew the memo from %d to %d entries", entries, n)
			}
			entries = memo.len()
		}
	})
}

// canonicalDoc is the whole document the addresser hashes.
func canonicalDoc(fp *specFingerprint) []byte {
	return fp.appendSuffix(appendEvent(fp.appendPrefix(nil), fp.Event))
}
