package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"radqec/internal/sweep"
)

// mustRun executes a sweep under a background context, failing the
// test on a terminal error.
func mustRun(t *testing.T, cfg sweep.Config, pts []sweep.Point) []sweep.Result {
	t.Helper()
	res, err := sweep.Run(context.Background(), cfg, pts)
	if err != nil {
		t.Fatalf("sweep.Run: %v", err)
	}
	return res
}

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	p := sweep.CachedPoint{Key: "fig5/a", Shots: 512, Errors: 3, Batches: 2, Converged: true}
	s.Commit("h1", p)
	s.Checkpoint("h2", sweep.CachedPoint{Shots: 128, Errors: 1, Batches: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	got, ok := r.Lookup("h1")
	if !ok || !reflect.DeepEqual(got, p) {
		t.Fatalf("Lookup(h1) = %+v, %v; want %+v", got, ok, p)
	}
	if _, ok := r.Lookup("h2"); ok {
		t.Fatal("checkpoint-only hash served as committed")
	}
	cp, ok := r.LookupPartial("h2")
	if !ok || cp.Shots != 128 || cp.Errors != 1 {
		t.Fatalf("LookupPartial(h2) = %+v, %v", cp, ok)
	}
	if es := r.Entries(); len(es) != 1 || es[0].Hash != "h1" || es[0].Key != "fig5/a" || es[0].Shots != 512 {
		t.Fatalf("Entries = %+v", es)
	}
}

func TestStoreCrashMidSegmentIgnoresTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	p1 := sweep.CachedPoint{Shots: 64, Errors: 2, Batches: 1, Converged: true}
	s.Commit("h1", p1)
	s.Commit("h2", sweep.CachedPoint{Shots: 64, Errors: 0, Converged: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn final record with no newline.
	path := filepath.Join(dir, SegmentName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"commit","hash":"h3","point":{"sho`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openT(t, dir, Options{})
	if _, ok := r.Lookup("h3"); ok {
		t.Fatal("torn record surfaced as a commit")
	}
	got, ok := r.Lookup("h1")
	if !ok || !reflect.DeepEqual(got, p1) {
		t.Fatalf("h1 lost after torn tail: %+v, %v", got, ok)
	}
	if _, ok := r.Lookup("h2"); !ok {
		t.Fatal("h2 lost after torn tail")
	}
	// The torn bytes were truncated away, so appends keep the segment
	// parseable across another reopen.
	r.Commit("h4", sweep.CachedPoint{Shots: 1, Converged: true})
	r.Close()
	r2 := openT(t, dir, Options{})
	for _, h := range []string{"h1", "h2", "h4"} {
		if _, ok := r2.Lookup(h); !ok {
			t.Fatalf("%s missing after append-past-torn-tail reopen", h)
		}
	}
}

func TestStoreInvalidateAndTombstonePersistence(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Commit("h1", sweep.CachedPoint{Shots: 8, Converged: true})
	s.Commit("h2", sweep.CachedPoint{Shots: 8, Converged: true})
	if !s.Invalidate("h1") {
		t.Fatal("Invalidate(h1) = false")
	}
	if s.Invalidate("h1") {
		t.Fatal("double Invalidate(h1) = true")
	}
	if _, ok := s.Lookup("h1"); ok {
		t.Fatal("h1 survived invalidation")
	}
	s.Close()

	r := openT(t, dir, Options{})
	if _, ok := r.Lookup("h1"); ok {
		t.Fatal("tombstone did not survive reopen")
	}
	if _, ok := r.Lookup("h2"); !ok {
		t.Fatal("h2 lost")
	}
}

func TestStoreCompactDropsDeadRecordsAndKeepsLive(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	// h1: checkpoints superseded by a commit; h2: live checkpoint only;
	// h3: committed then invalidated.
	s.Checkpoint("h1", sweep.CachedPoint{Shots: 64, Errors: 1})
	s.Checkpoint("h1", sweep.CachedPoint{Shots: 128, Errors: 2})
	s.Commit("h1", sweep.CachedPoint{Key: "k1", Shots: 256, Errors: 3, Converged: true})
	s.Checkpoint("h2", sweep.CachedPoint{Shots: 64, Errors: 0})
	s.Commit("h3", sweep.CachedPoint{Shots: 8, Converged: true})
	s.Invalidate("h3")
	before := s.Stats().SegmentBytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().SegmentBytes
	if after >= before {
		t.Fatalf("compaction did not shrink the segment: %d -> %d", before, after)
	}
	// Live state intact, through the rebuilt offsets and a reopen.
	check := func(st *Store) {
		t.Helper()
		got, ok := st.Lookup("h1")
		if !ok || got.Shots != 256 || got.Errors != 3 {
			t.Fatalf("h1 after compact = %+v, %v", got, ok)
		}
		if cp, ok := st.LookupPartial("h2"); !ok || cp.Shots != 64 {
			t.Fatalf("h2 checkpoint after compact = %+v, %v", cp, ok)
		}
		if _, ok := st.Lookup("h3"); ok {
			t.Fatal("invalidated h3 resurrected by compaction")
		}
	}
	check(s)
	s.Close()
	check(openT(t, dir, Options{}))
}

// TestStoreServesEveryCommitFromMemory: every committed point stays
// resident, so once the store is open the segment is never read again —
// damage to it after Open changes no Lookup, and Compact rewrites the
// verified copies whole.
func TestStoreServesEveryCommitFromMemory(t *testing.T) {
	const n = 5000
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	point := func(i int) sweep.CachedPoint {
		return sweep.CachedPoint{Key: fmt.Sprintf("k%d", i), Shots: 64 + i, Errors: i % 7, Batches: 1 + i%3, Converged: i%2 == 0}
	}
	hash := func(i int) string { return fmt.Sprintf("%064x", i) }
	for i := 0; i < n; i++ {
		s.Commit(hash(i), point(i))
	}
	// Overwrite the middle of the segment behind the open store's back.
	f, err := os.OpenFile(filepath.Join(dir, SegmentName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	size := s.Stats().SegmentBytes
	if _, err := f.WriteAt(bytes.Repeat([]byte("x"), int(size/4)), size*3/8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for i := 0; i < n; i++ {
		if got, ok := s.Lookup(hash(i)); !ok || !reflect.DeepEqual(got, point(i)) {
			t.Fatalf("Lookup(%d) = %+v, %v; want %+v", i, got, ok, point(i))
		}
	}
	if st := s.Stats(); st.Resident != n || st.Commits != n || st.Quarantined != 0 {
		t.Fatalf("stats = %+v; want %d commits, all resident, none quarantined", st, n)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openT(t, dir, Options{})
	if st := r.Stats(); st.Commits != n || st.Quarantined != 0 {
		t.Fatalf("reopen after compact: %+v; want %d commits, none quarantined", st, n)
	}
	for i := 0; i < n; i++ {
		if got, ok := r.Lookup(hash(i)); !ok || !reflect.DeepEqual(got, point(i)) {
			t.Fatalf("after compact, Lookup(%d) = %+v, %v; want %+v", i, got, ok, point(i))
		}
	}
}

func TestStoreSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a locked store succeeded")
	} else if !strings.Contains(err.Error(), "already open") {
		t.Fatalf("lock error = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	s2.Close()
}

func TestStoreClear(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Commit("h1", sweep.CachedPoint{Shots: 8})
	s.Checkpoint("h2", sweep.CachedPoint{Shots: 4})
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Commits != 0 || st.Checkpoints != 0 || st.SegmentBytes != 0 {
		t.Fatalf("stats after clear = %+v", st)
	}
	s.Close()
	r := openT(t, dir, Options{})
	if _, ok := r.Lookup("h1"); ok {
		t.Fatal("clear did not persist")
	}
}

func TestStoreSegmentIsNDJSON(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Commit("h1", sweep.CachedPoint{Key: "k", Shots: 8, Errors: 1, Batches: 1})
	s.Close()
	raw, err := os.ReadFile(filepath.Join(dir, SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("segment lines = %d", len(lines))
	}
	var env struct {
		CRC uint32          `json:"crc"`
		Rec json.RawMessage `json:"rec"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
		t.Fatalf("segment line is not JSON: %v", err)
	}
	if env.Rec == nil {
		t.Fatalf("segment line carries no rec envelope: %s", lines[0])
	}
	var rec map[string]any
	if err := json.Unmarshal(env.Rec, &rec); err != nil {
		t.Fatalf("envelope rec is not JSON: %v", err)
	}
	if rec["kind"] != "commit" || rec["hash"] != "h1" {
		t.Fatalf("record = %v", rec)
	}
}

// TestResumeMatchesUninterruptedRun is the end-to-end determinism
// guarantee of the store + sweep pairing: a campaign killed after any
// batch boundary and resumed from its checkpoints produces exactly the
// results of an uninterrupted run — same counts, same batch count.
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	// A deterministic fake runner honouring the BatchRunner contract:
	// shot i's outcome depends only on i, so any batch split merges to
	// the same counts, like the real engines' split(seed, i) streams.
	outcome := func(i int) int {
		x := uint64(i)*2654435761 + 12345
		x ^= x >> 13
		if x%17 == 0 {
			return 1
		}
		return 0
	}
	point := func(hash string) sweep.Point {
		return sweep.Point{
			Key:  "pt/" + hash,
			Hash: hash,
			Prepare: func() sweep.BatchRunner {
				return func(start, n int) sweep.Counts {
					c := sweep.Counts{Shots: n}
					for i := start; i < start+n; i++ {
						c.Errors += outcome(i)
					}
					return c
				}
			},
		}
	}
	for ci, cfg := range []sweep.Config{
		{Policy: sweep.Policy{Shots: 1000}, Mechanism: sweep.Mechanism{Workers: 1}},              // fixed mode
		{Policy: sweep.Policy{CI: 0.02, MaxShots: 4000}, Mechanism: sweep.Mechanism{Workers: 1}}, // adaptive
		{Policy: sweep.Policy{CI: 0.02, MaxShots: 4000, Align: 64}, Mechanism: sweep.Mechanism{Workers: 1}},
	} {
		// The reference run writes its own store: its segment then holds
		// one "ckpt" line per batch plus the final commit — the literal
		// disk trail an interrupted run leaves behind. It is read after
		// Sync, as a kill leaves it: a clean Close compacts the trail.
		refDir := t.TempDir()
		ref := openT(t, refDir, Options{})
		rcfg := cfg
		rcfg.Cache = ref
		full := mustRun(t, rcfg, []sweep.Point{point("h")})[0]
		if err := ref.Sync(); err != nil {
			t.Fatal(err)
		}
		lines := segmentLines(t, refDir)
		ref.Close()
		var ckpts []string
		for _, ln := range lines {
			if strings.Contains(ln, `"batch_rates"`) {
				t.Fatalf("cfg %d: the sweep wrote a batch-rate stream: %s", ci, ln)
			}
			if strings.Contains(ln, `"kind":"ckpt"`) {
				ckpts = append(ckpts, ln)
			}
		}
		// Every batch boundary except the last is checkpointed; the
		// final batch's state ships only in the commit record.
		if len(ckpts) != full.Batches-1 || len(ckpts) < 2 {
			t.Fatalf("cfg %d: %d checkpoints for %d batches", ci, len(ckpts), full.Batches)
		}
		// Kill after every batch boundary: the store holds the first k
		// checkpoints and no commit. Resume and demand the exact
		// uninterrupted result.
		for k := 1; k <= len(ckpts); k++ {
			dir := t.TempDir()
			seg := strings.Join(ckpts[:k], "\n") + "\n" +
				`{"kind":"commit","hash":"torn` // a mid-append kill, too
			if err := os.WriteFile(filepath.Join(dir, SegmentName), []byte(seg), 0o644); err != nil {
				t.Fatal(err)
			}
			s := openT(t, dir, Options{})
			ccfg := cfg
			ccfg.Cache = s
			got := mustRun(t, ccfg, []sweep.Point{point("h")})[0]
			if got.Cached {
				t.Fatalf("cfg %d k=%d: resumed run reported Cached", ci, k)
			}
			assertSameResult(t, k, full, got)
			// A re-run against the now-committed store replays the
			// identical result without ever building the runner.
			ccfg2 := cfg
			ccfg2.Cache = s
			replay := mustRun(t, ccfg2, []sweep.Point{{Key: "pt/h", Hash: "h", Prepare: func() sweep.BatchRunner {
				t.Fatalf("cfg %d k=%d: replay invoked Prepare despite a committed result", ci, k)
				return nil
			}}})[0]
			if !replay.Cached {
				t.Fatalf("cfg %d k=%d: replay not served from cache", ci, k)
			}
			assertSameResult(t, k, full, replay)
			s.Close()
		}
	}
}

// segmentLines reads the store segment as its NDJSON lines.
func segmentLines(tb testing.TB, dir string) []string {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, SegmentName))
	if err != nil {
		tb.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
}

func assertSameResult(t *testing.T, k int, want, got sweep.Result) {
	t.Helper()
	if got.Shots != want.Shots || got.Errors != want.Errors {
		t.Fatalf("k=%d: counts (%d,%d), want (%d,%d)", k, got.Shots, got.Errors, want.Shots, want.Errors)
	}
	if got.Batches != want.Batches {
		t.Fatalf("k=%d: %d batches, want %d", k, got.Batches, want.Batches)
	}
	if got.CILo != want.CILo || got.CIHi != want.CIHi || got.Converged != want.Converged {
		t.Fatalf("k=%d: derived stats diverged: %+v vs %+v", k, got, want)
	}
}

// FuzzSegmentReplay writes a segment of arbitrary bytes, a newline and
// one valid commit record. Whatever the bytes, Open must succeed,
// Lookup must serve the commit, and replay must quarantine exactly the
// lines before it that are not records.
func FuzzSegmentReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"kind":"commit","hash":"h3","point":{"sho`))
	f.Add([]byte("\x00\xff\n{}\n{\"crc\":0,\"rec\":{}}\n\n"))
	want := sweep.CachedPoint{Key: "fuzz-key", Shots: 64, Errors: 5, Batches: 2}
	del, err := encodeRecord(record{Kind: "del", Hash: "fuzz"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte("junk\n"), bytes.TrimSuffix(del, []byte("\n"))...))
	commit, err := encodeRecord(record{Kind: "commit", Hash: "fuzz", Point: &want})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, garbage []byte) {
		head := append(append([]byte(nil), garbage...), '\n')
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SegmentName), append(head, commit...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		if got, ok := s.Lookup("fuzz"); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup = %+v, %v; want %+v", got, ok, want)
		}
		bad := 0
		for _, ln := range bytes.SplitAfter(head, []byte("\n")) {
			if _, err := decodeLine(ln); len(ln) > 0 && err != nil {
				bad++
			}
		}
		if got := s.Stats().Quarantined; got != bad {
			t.Fatalf("quarantined %d lines, %d before the commit are not records", got, bad)
		}
	})
}
