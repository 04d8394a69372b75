package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"radqec/internal/sweep"
)

// benchPoints is the daemon-replay store's size: 28 fig5 campaigns of
// 160 points.
const benchPoints = 28 * 160

// writeDaemonSegment writes the segment a daemon leaves after committing
// n fig5-shaped points of 2000 shots: three checkpoints at 512-shot
// batch boundaries, then the commit. It returns the number of lines.
func writeDaemonSegment(tb testing.TB, dir string, n int) int {
	tb.Helper()
	f, err := os.Create(filepath.Join(dir, SegmentName))
	if err != nil {
		tb.Fatal(err)
	}
	w := bufio.NewWriter(f)
	lines := 0
	for i := 0; i < n; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint(i)))
		hash := hex.EncodeToString(sum[:])
		key := fmt.Sprintf("fig5/rep-(%d,1)/p1e-%02d/t%d", 3+2*(i%4), 2+(i/4)%8, (i/32)%5)
		for b := 1; b <= 4; b++ {
			rec := record{Kind: "ckpt", Hash: hash, Point: &sweep.CachedPoint{Key: key, Shots: 512 * b, Errors: (i*7 + b) % 300, Batches: b}}
			if b == 4 {
				rec.Kind = "commit"
				rec.Point.Shots, rec.Point.Converged = 2000, true
			}
			line, err := encodeRecord(rec)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := w.Write(line); err != nil {
				tb.Fatal(err)
			}
			lines++
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return lines
}

// BenchmarkOpen times Open on the segment a killed daemon leaves after
// filling the daemon-replay store (4480 points, 17 920 lines) and
// reports the replay cost per line. Each Close compacts that trail, so
// every iteration writes it again.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	var lines int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lines = writeDaemonSegment(b, dir, benchPoints)
		b.StartTimer()
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := s.Stats(); st.Commits != benchPoints || st.Quarantined != 0 {
			b.Fatalf("replayed %+v; want %d commits and none quarantined", st, benchPoints)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}

// BenchmarkClose times the clean Close of a store opened on that trail:
// the rewrite to its 4480 commits, fsync and rename included. It
// reports the cost per record written.
func BenchmarkClose(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		writeDaemonSegment(b, dir, benchPoints)
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := len(segmentLines(b, dir)); got != benchPoints {
		b.Fatalf("Close left %d lines, want the %d commits", got, benchPoints)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchPoints), "ns/record")
}
