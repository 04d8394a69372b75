package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"radqec/internal/sweep"
)

// shapeRecords holds one record of every shape encodeRecord writes:
// each kind, each point member present and omitted, legacy batch_rates,
// and keys the scanner reads verbatim or leaves to encoding/json.
func shapeRecords() []record {
	p := func(q sweep.CachedPoint) *sweep.CachedPoint { return &q }
	return []record{
		{Kind: "ckpt", Hash: "h1", Point: p(sweep.CachedPoint{Key: "fig5/rep-(5,1)/p1e-08/t1", Shots: 512, Errors: 8, Batches: 1})},
		{Kind: "commit", Hash: "h1", Point: p(sweep.CachedPoint{Key: "fig5/rep-(5,1)/p1e-08/t1", Shots: 2000, Errors: 42, Batches: 4, Converged: true})},
		{Kind: "ckpt", Hash: "h1", Point: p(sweep.CachedPoint{Key: "late", Shots: 64, Batches: 1})},
		{Kind: "commit", Hash: "h2", Point: p(sweep.CachedPoint{Shots: 64})},
		{Kind: "commit", Hash: "h3", Point: p(sweep.CachedPoint{Key: "legacy", Shots: 2000, Errors: 311,
			BatchRates: []float64{1e-07, 0.15625, 0, 0.028017241379310345}, Converged: true})},
		{Kind: "ckpt", Hash: "h4", Point: p(sweep.CachedPoint{Key: "legacy-ckpt", Shots: 1024, Errors: 19, BatchRates: []float64{0.015625, 0.021484375}})},
		{Kind: "ckpt", Hash: "h5", Point: p(sweep.CachedPoint{Key: "no-batches", Shots: 512, Errors: 3})},
		{Kind: "commit", Hash: "h6", Point: p(sweep.CachedPoint{Key: "quote\"back\\slash", Shots: 8, Errors: 1, Batches: 1})},
		{Kind: "commit", Hash: "h7", Point: p(sweep.CachedPoint{Key: "<html>&amp;", Shots: 8, Batches: 1})},
		{Kind: "commit", Hash: "h8", Point: p(sweep.CachedPoint{Key: "naïve/τ=3µs", Shots: 16, Errors: 2, Batches: 2})},
		{Kind: "commit", Hash: "h9", Point: p(sweep.CachedPoint{Key: "gone", Shots: 4, Batches: 1})},
		{Kind: "del", Hash: "h9"},
		{Kind: "del", Hash: "h5"},
		{Kind: "commit", Hash: "h2", Point: p(sweep.CachedPoint{Key: "again", Shots: 128, Errors: 5, Batches: 2, Converged: true})},
		{Kind: "future", Hash: "h10"},
		{Kind: "commit", Hash: "h11"},
	}
}

// encodeT is encodeRecord for tests.
func encodeT(tb testing.TB, rec record) []byte {
	tb.Helper()
	line, err := encodeRecord(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

// flipCRC changes the last digit of a line's checksum.
func flipCRC(line []byte) []byte {
	out := append([]byte(nil), line...)
	i := bytes.IndexByte(out, ',') - 1
	out[i] = '0' + (out[i]-'0'+1)%10
	return out
}

// referenceReplay folds decodeLine over a segment's lines with apply, as
// replay did before it scanned: the index, the quarantine count and the
// length of the segment that survives torn-tail truncation.
func referenceReplay(seg []byte) (*Store, int64) {
	ref := &Store{commits: make(map[string]*commitEntry), ckpts: make(map[string]sweep.CachedPoint)}
	var off, valid int64
	pending := 0
	for _, line := range bytes.SplitAfter(seg, []byte("\n")) {
		if len(line) == 0 || line[len(line)-1] != '\n' {
			break // torn tail
		}
		off += int64(len(line))
		rec, err := decodeLine(line)
		if err != nil {
			pending++
			continue
		}
		ref.quarantined += pending
		pending = 0
		ref.apply(rec)
		valid = off
	}
	return ref, valid
}

// TestReplayMatchesDecodeLine: Open builds the index, Stats, quarantine
// count and torn-tail truncation that folding decodeLine over the same
// segment builds — on a segment holding every record shape, a
// CRC-flipped line mid-segment, a bare-JSON line, a line another writer
// formatted, lines longer than the read buffer, a rejected line at the
// end and a torn tail — and the
// scanner, not encoding/json, read the lines in the store's own format.
func TestReplayMatchesDecodeLine(t *testing.T) {
	var seg []byte
	var hashes []string
	for i, rec := range shapeRecords() {
		line := encodeT(t, rec)
		got, verdict := scanLine(line)
		escaped := bytes.Contains(line, []byte(`\`))
		if want := scanOK; verdict != want && !escaped {
			t.Fatalf("record %d (%s): scanLine verdict %d, want %d", i, line, verdict, want)
		}
		if verdict == scanOK && !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d: scanLine = %+v, want %+v", i, got, rec)
		}
		seg = append(seg, line...)
		hashes = append(hashes, rec.Hash)
		if i == 4 {
			flipped := flipCRC(encodeT(t, record{Kind: "commit", Hash: "rot", Point: &sweep.CachedPoint{Shots: 9}}))
			if _, v := scanLine(flipped); v != scanBad {
				t.Fatalf("CRC-flipped line: verdict %d, want scanBad", v)
			}
			seg = append(seg, flipped...)
			hashes = append(hashes, "rot")
		}
		if i == 7 {
			bare := []byte(`{"kind":"commit","hash":"bare","point":{"key":"k","shots":8,"errors":1}}` + "\n")
			body := `{"point":{"errors":3,"shots":24,"key":"other"},"hash":"other","kind":"commit"}`
			other := []byte(fmt.Sprintf("{ \"rec\": %s, \"crc\": %d }\n", body, crc32.Checksum([]byte(body), castagnoli)))
			for _, l := range [][]byte{bare, other} {
				if _, v := scanLine(l); v != scanDefer {
					t.Fatalf("%s: verdict %d, want scanDefer", l, v)
				}
			}
			seg = append(append(seg, bare...), other...)
			hashes = append(hashes, "bare", "other")
		}
	}
	// Lines longer than the replay buffer: a legacy commit, then a torn
	// one at the end.
	rates := make([]float64, 2*replayBuffer/10)
	for i := range rates {
		rates[i] = float64(i%512) / 512
	}
	long := encodeT(t, record{Kind: "commit", Hash: "long", Point: &sweep.CachedPoint{Key: "long", Shots: 512 * len(rates), BatchRates: rates}})
	if len(long) <= replayBuffer {
		t.Fatalf("long line is %d bytes, not past the %d-byte buffer", len(long), replayBuffer)
	}
	seg = append(seg, long...)
	seg = append(seg, flipCRC(encodeT(t, record{Kind: "commit", Hash: "tail", Point: &sweep.CachedPoint{Shots: 1}}))...)
	seg = append(seg, long[:len(long)-2]...)
	hashes = append(hashes, "long", "tail")

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SegmentName), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	ref, valid := referenceReplay(seg)
	st := s.Stats()
	want := Stats{Commits: len(ref.commits), Checkpoints: len(ref.ckpts), SegmentBytes: valid,
		Resident: len(ref.commits), Quarantined: ref.quarantined}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	if want.Quarantined != 2 || want.Commits == 0 || want.Checkpoints == 0 {
		t.Fatalf("reference %+v: the segment lost the shapes it was built to hold", want)
	}
	if fi, err := os.Stat(filepath.Join(dir, SegmentName)); err != nil || fi.Size() != valid {
		t.Fatalf("segment after Open: %v, %v; want %d bytes", fi, err, valid)
	}
	if got, want := s.Entries(), ref.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Entries = %+v, want %+v", got, want)
	}
	for _, h := range hashes {
		got, ok := s.Lookup(h)
		want, wok := ref.Lookup(h)
		if ok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%s) = %+v, %v; want %+v, %v", h, got, ok, want, wok)
		}
		got, ok = s.LookupPartial(h)
		want, wok = ref.LookupPartial(h)
		if ok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("LookupPartial(%s) = %+v, %v; want %+v, %v", h, got, ok, want, wok)
		}
	}
}

// FuzzReplayLineMatchesJSON holds the scanner to decodeLine: a line it
// accepts decodes to the record decodeLine returns, with no error; a
// line it calls bad is one decodeLine rejects; it defers every other
// line.
func FuzzReplayLineMatchesJSON(f *testing.F) {
	for _, rec := range shapeRecords() {
		line := encodeT(f, rec)
		f.Add(line)
		f.Add(flipCRC(line))
	}
	for _, key := range []string{"", `"`, `\`, "<", "&", "é", "\xff"} {
		f.Add(encodeT(f, record{Kind: "ckpt", Hash: key, Point: &sweep.CachedPoint{Key: key, Shots: 1}}))
	}
	// Bodies encodeRecord never writes, framed with their true checksum,
	// so only the scanner's reading of the body decides the verdict.
	for _, body := range []string{
		`{"kind":"","hash":"","point":{}}`,
		`{"kind":"commit","hash":"h","point":{"key":"","batch_rates":[1e-07,0.15625,-0,2E+3],"converged":false}}`,
		"{\"kind\":\"commit\",\"hash\":\"h\",\"point\":{\"key\":\"\xff\xfe\",\"shots\":1}}",
		`{"kind":"commit","hash":"h","point":{"shots":01}}`,
		`{"kind":"commit","hash":"h","point":{"shots":1234567890123456789}}`,
		`{"kind":"commit","hash":"h","point":{"shots":-1}}`,
		`{"kind":"commit","hash":"h","point":{"batch_rates":[01.5]}}`,
		`{"kind":"commit","hash":"h","point":{"batch_rates":[1.]}}`,
		`{"kind":"commit","hash":"h","point":{"batch_rates":[1e400]}}`,
	} {
		f.Add([]byte(fmt.Sprintf(`{"crc":%d,"rec":%s}`, crc32.Checksum([]byte(body), castagnoli), body)))
	}
	// A checksum that matches only once truncated to 32 bits.
	del := `{"kind":"del","hash":"h"}`
	f.Add([]byte(fmt.Sprintf(`{"crc":%d,"rec":%s}`, uint64(crc32.Checksum([]byte(del), castagnoli))+1<<32, del)))
	f.Add([]byte(`{"crc":01,"rec":{"kind":"del","hash":"h"}}`))
	f.Add([]byte(`{"crc":4294967296,"rec":{"kind":"del","hash":"h"}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, verdict := scanLine(line)
		want, err := decodeLine(line)
		switch verdict {
		case scanOK:
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("scanLine accepted %q as %+v; decodeLine: %+v, %v", line, got, want, err)
			}
		case scanBad:
			if err == nil {
				t.Fatalf("scanLine rejected %q; decodeLine accepted it as %+v", line, want)
			}
		}
	})
}
