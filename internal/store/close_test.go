package store

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"radqec/internal/faultinject"
	"radqec/internal/sweep"
)

// fillTrail writes what a fixed-shot point of the given batches leaves:
// one checkpoint per batch boundary, then its commit.
func fillTrail(s *Store, hash string, batches int) sweep.CachedPoint {
	for b := 1; b < batches; b++ {
		s.Checkpoint(hash, sweep.CachedPoint{Shots: 512 * b, Errors: b, Batches: b})
	}
	p := sweep.CachedPoint{Key: "pt/" + hash, Shots: 512 * batches, Errors: batches, Batches: batches}
	s.Commit(hash, p)
	return p
}

// segmentFile stats the segment, so a test can tell whether a rewrite
// replaced its inode.
func segmentFile(t *testing.T, dir string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// indexView is everything a store serves: every hash's commit and
// checkpoint, and the entry listing.
type indexView struct {
	commits map[string]sweep.CachedPoint
	ckpts   map[string]sweep.CachedPoint
	entries []Entry
}

func viewOf(s *Store, hashes []string) indexView {
	v := indexView{commits: map[string]sweep.CachedPoint{}, ckpts: map[string]sweep.CachedPoint{}, entries: s.Entries()}
	for _, h := range hashes {
		if p, ok := s.Lookup(h); ok {
			v.commits[h] = p
		}
		if p, ok := s.LookupPartial(h); ok {
			v.ckpts[h] = p
		}
	}
	return v
}

// TestCloseCompactsToCommits: N points of B batches each leave N×B
// lines; a clean Close leaves exactly the N commits, hash-sorted, and
// the reopened store serves what the closed one served. Closing the
// reopened store, which holds nothing superseded, rewrites nothing.
func TestCloseCompactsToCommits(t *testing.T) {
	const n, batches = 25, 4
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	var hashes []string
	for i := 0; i < n; i++ {
		h := fmt.Sprintf("%064x", n-i) // committed in descending order
		hashes = append(hashes, h)
		fillTrail(s, h, batches)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := len(segmentLines(t, dir)); got != n*batches {
		t.Fatalf("segment holds %d lines before Close, want %d", got, n*batches)
	}
	want := viewOf(s, hashes)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := segmentLines(t, dir)
	if len(lines) != n {
		t.Fatalf("segment holds %d lines after Close, want %d commits", len(lines), n)
	}
	for i, ln := range lines {
		if !strings.Contains(ln, `"kind":"commit"`) || !strings.Contains(ln, fmt.Sprintf("%064x", i+1)) {
			t.Fatalf("line %d is not the commit of hash %d in order: %s", i, i+1, ln)
		}
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := viewOf(r, hashes); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store serves\n%+v\nwant\n%+v", got, want)
	}
	if st := r.Stats(); st.Commits != n || st.Checkpoints != 0 || st.Quarantined != 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
	before := segmentFile(t, dir)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, segmentFile(t, dir)) {
		t.Fatal("closing a compacted store rewrote its segment")
	}
}

// TestCloseCompactsReplayedTrail: the trail a killed process left counts
// as superseded once replayed, so the next clean Close compacts it.
func TestCloseCompactsReplayedTrail(t *testing.T) {
	dir := t.TempDir()
	if lines := writeDaemonSegment(t, dir, 10); lines != 40 {
		t.Fatalf("wrote %d lines, want 40", lines)
	}
	s := openT(t, dir, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(segmentLines(t, dir)); got != 10 {
		t.Fatalf("segment holds %d lines after Close, want the 10 commits", got)
	}
}

// TestCloseKeepsUncommittedCheckpoint: the latest checkpoint of a point
// that never committed survives the close-time rewrite, so its campaign
// resumes from it after the restart; its older checkpoints go.
func TestCloseKeepsUncommittedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	var hashes []string
	for i := 0; i < 5; i++ {
		h := fmt.Sprintf("c%d", i)
		hashes = append(hashes, h)
		fillTrail(s, h, 4)
	}
	latest := sweep.CachedPoint{Shots: 1536, Errors: 7, Batches: 3}
	s.Checkpoint("u", sweep.CachedPoint{Shots: 512, Errors: 2, Batches: 1})
	s.Checkpoint("u", sweep.CachedPoint{Shots: 1024, Errors: 5, Batches: 2})
	s.Checkpoint("u", latest)
	hashes = append(hashes, "u")
	want := viewOf(s, hashes)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var ckpts []string
	lines := segmentLines(t, dir)
	for _, ln := range lines {
		if strings.Contains(ln, `"kind":"ckpt"`) {
			ckpts = append(ckpts, ln)
		}
	}
	if len(lines) != 6 || len(ckpts) != 1 || !strings.Contains(ckpts[0], `"hash":"u"`) {
		t.Fatalf("segment after Close: %d lines, checkpoints %q; want 5 commits and u's checkpoint", len(lines), ckpts)
	}
	r := openT(t, dir, Options{})
	if got := viewOf(r, hashes); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store serves\n%+v\nwant\n%+v", got, want)
	}
	if got, ok := r.LookupPartial("u"); !ok || !reflect.DeepEqual(got, latest) {
		t.Fatalf("LookupPartial(u) = %+v, %v; want %+v", got, ok, latest)
	}
}

// TestCloseRewritesOnlyPastTheTrigger: Close rewrites when superseded
// records are at least as many as live ones, and otherwise leaves the
// segment byte-identical on its own inode. Each point commits; the
// first ckpted of them checkpoint once before.
func TestCloseRewritesOnlyPastTheTrigger(t *testing.T) {
	for _, tc := range []struct {
		points, ckpted int
		rewrite        bool
	}{
		{points: 10, ckpted: 1},
		{points: 5, ckpted: 4},
		{points: 5, ckpted: 5, rewrite: true},
		{points: 0, ckpted: 0},
	} {
		dir := t.TempDir()
		s := openT(t, dir, Options{})
		for i := 0; i < tc.points; i++ {
			batches := 1
			if i < tc.ckpted {
				batches = 2
			}
			fillTrail(s, fmt.Sprintf("h%d", i), batches)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, SegmentName))
		if err != nil {
			t.Fatal(err)
		}
		before := segmentFile(t, dir)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(filepath.Join(dir, SegmentName))
		if err != nil {
			t.Fatal(err)
		}
		kept := string(after) == string(raw) && os.SameFile(before, segmentFile(t, dir))
		if kept == tc.rewrite {
			t.Errorf("%d points, %d checkpointed: segment kept = %v (%d -> %d bytes), want %v",
				tc.points, tc.ckpted, kept, len(raw), len(after), !tc.rewrite)
		}
		if tc.rewrite && strings.Count(string(after), "\n") != tc.points {
			t.Errorf("%d points: rewrite left %d lines", tc.points, strings.Count(string(after), "\n"))
		}
	}
}

// TestDegradedStoreClosesWithoutRewrite: a store whose appends failed
// closes as it always did — the segment is left as the failed appends
// left it, superseded records and all.
func TestDegradedStoreClosesWithoutRewrite(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openT(t, dir, chaosOpts)
	for i := 0; i < 3; i++ {
		fillTrail(s, fmt.Sprintf("h%d", i), 4)
	}
	if err := faultinject.Enable(faultinject.StoreWriteError, "error"); err != nil {
		t.Fatal(err)
	}
	s.Commit("h3", pt("k3", 8, 1))
	if !s.Stats().Degraded {
		t.Fatal("persistent write failure did not degrade the store")
	}
	raw, err := os.ReadFile(filepath.Join(dir, SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("Close = %v, want the degraded-mode error", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(raw) {
		t.Fatalf("degraded Close rewrote the segment: %d -> %d bytes", len(raw), len(after))
	}
}

// TestFailedCloseRewriteStillCloses: a close-time rewrite that fails
// before its rename (here the temp segment cannot be created, because
// the directory moved away) is logged as a warning; Close still
// succeeds, and the segment keeps every record it held.
func TestFailedCloseRewriteStillCloses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openT(t, dir, Options{})
	var want []sweep.CachedPoint
	for i := 0; i < 3; i++ {
		want = append(want, fillTrail(s, fmt.Sprintf("h%d", i), 4))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	moved := dir + ".moved"
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after a failed rewrite = %v, want nil", err)
	}
	if !strings.Contains(logged.String(), "close-time compaction failed") {
		t.Fatalf("failed rewrite not logged; log = %q", logged.String())
	}
	if err := os.Rename(moved, dir); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(raw) {
		t.Fatalf("failed rewrite changed the segment: %d -> %d bytes", len(raw), len(after))
	}
	r := openT(t, dir, Options{})
	for i, p := range want {
		if got, ok := r.Lookup(fmt.Sprintf("h%d", i)); !ok || !reflect.DeepEqual(got, p) {
			t.Fatalf("Lookup(h%d) = %+v, %v; want %+v", i, got, ok, p)
		}
	}
}

// TestOpenRemovesStaleRewrite: a process killed mid-rewrite leaves its
// temp segment; the next Open removes it and serves the whole segment
// the rename never replaced.
func TestOpenRemovesStaleRewrite(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	p := fillTrail(s, "h", 1)
	s.Close()
	stale := filepath.Join(dir, SegmentName+".tmp123")
	if err := os.WriteFile(stale, []byte(`{"crc":1,"rec":{"kind":"com`), 0o644); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale rewrite still there after Open: %v", err)
	}
	if got, ok := r.Lookup("h"); !ok || !reflect.DeepEqual(got, p) {
		t.Fatalf("Lookup(h) = %+v, %v; want %+v", got, ok, p)
	}
}

// TestCloseRacesAppends: Close, and the rewrite it runs, land between
// whole records while other goroutines checkpoint and commit; the
// reopened store quarantines nothing and serves only whole trails.
func TestCloseRacesAppends(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 20; i++ {
		fillTrail(s, fmt.Sprintf("pre%d", i), 4)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fillTrail(s, fmt.Sprintf("g%d-%d", g, i), 4)
			}
		}()
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	wg.Wait()
	r := openT(t, dir, Options{})
	if st := r.Stats(); st.Quarantined != 0 || st.Commits < 20 {
		t.Fatalf("reopened stats = %+v; want the 20 earlier commits at least, none quarantined", st)
	}
	for _, e := range r.Entries() {
		if e.Shots != 2048 {
			t.Fatalf("entry %+v is not a whole trail's commit", e)
		}
	}
}
