package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"

	"radqec/internal/store"
	"radqec/internal/sweep"
)

// TestMain lets a test re-execute this binary as the radqecd command
// itself: with RADQECD_TEST_MAIN set it runs main on the given arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RADQECD_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// run re-executes the test binary as radqecd on args; every case here
// exits while parsing flags, before anything listens.
func run(t *testing.T, args ...string) (out string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RADQECD_TEST_MAIN=1")
	b, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		exitCode = exit.ExitCode()
	default:
		t.Fatalf("radqecd %v: %v", args, err)
	}
	return string(b), exitCode
}

// TestRemovedFlagsAreUsageErrors: the HTTP server's header and idle
// limits are constants and the store keeps every committed point
// resident (no script, CI job or deployment ever set them), so the
// flags that used to carry them are unknown — exit 2 naming the flag,
// never a silently ignored option.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-idle-timeout", "1m"},
		{"-read-header-timeout", "1s"},
		{"-max-header-bytes", "1"},
		{"-lru", "8"},
	} {
		out, code := run(t, args...)
		if code != 2 {
			t.Errorf("radqecd %v: exit %d, want 2\n%s", args, code, out)
		}
		if !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Errorf("radqecd %v: usage error does not name the flag:\n%s", args, out)
		}
	}
}

// TestFlagSet pins the daemon's flag surface: a new flag is a reviewed
// line here, not a drive-by.
func TestFlagSet(t *testing.T) {
	want := []string{
		"addr", "log-format", "log-level", "pprof", "store",
		"trace-sample", "workers",
	}
	out, code := run(t, "-h")
	if code != 0 {
		t.Fatalf("radqecd -h: exit %d\n%s", code, out)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(out, -1) {
		if !strings.HasPrefix(m[1], "test.") { // the re-executed test binary's own flags
			got = append(got, m[1])
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("radqecd -h lists %d flags %v, want %d %v", len(got), got, len(want), want)
	}
}

// TestStoreOpenedLogsReplay: the daemon's "store opened" record says
// what the restart replayed — the index, the segment, the corrupt lines
// it quarantined and how long the replay took.
func TestStoreOpenedLogsReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Checkpoint("h1", sweep.CachedPoint{Key: "k1", Shots: 512, Batches: 1})
	st.Commit("h2", sweep.CachedPoint{Key: "k2", Shots: 2000, Errors: 3, Batches: 4})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, store.SegmentName)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw = append([]byte("junk\n"), raw...)
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-store", dir, "-log-format", "json")
	cmd.Env = append(os.Environ(), "RADQECD_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		if rec["msg"] != "radqecd: store opened" {
			continue
		}
		for k, want := range map[string]float64{"commits": 1, "checkpoints": 1, "quarantined": 1, "segment_bytes": float64(len(raw))} {
			if rec[k] != want {
				t.Errorf("store opened: %s = %v, want %v", k, rec[k], want)
			}
		}
		if ms, ok := rec["replay_ms"].(float64); !ok || ms < 0 {
			t.Errorf("store opened: replay_ms = %v, want a duration in ms", rec["replay_ms"])
		}
		return
	}
	t.Fatalf("radqecd never logged \"store opened\" (%v)", sc.Err())
}

// TestStoreClosedLogsRewrite: on a clean shutdown the daemon's "store
// closed" record says what Close did to the segment — its size before
// and after the close-time rewrite — and how long Close took.
func TestStoreClosedLogsRewrite(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h := fmt.Sprintf("h%d", i)
		for b := 1; b < 4; b++ {
			st.Checkpoint(h, sweep.CachedPoint{Shots: 512 * b, Batches: b})
		}
		st.Commit(h, sweep.CachedPoint{Key: "k" + h, Shots: 2000, Batches: 4})
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Keep the trail a kill would leave: Close compacts it away.
	seg := filepath.Join(dir, store.SegmentName)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-store", dir, "-log-format", "json")
	cmd.Env = append(os.Environ(), "RADQECD_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(stderr)
	var closed map[string]any
	for closed == nil && sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		switch rec["msg"] {
		case "radqecd: listening":
			cmd.Process.Signal(syscall.SIGTERM)
		case "radqecd: store closed":
			closed = rec
		}
	}
	if closed == nil {
		t.Fatalf("radqecd never logged \"store closed\" (%v)", sc.Err())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("radqecd after SIGTERM: %v", err)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{"segment_bytes_before": float64(len(raw)), "segment_bytes_after": float64(after.Size())} {
		if closed[k] != want {
			t.Errorf("store closed: %s = %v, want %v", k, closed[k], want)
		}
	}
	if after.Size() >= int64(len(raw)) {
		t.Errorf("Close left %d bytes of %d: the trail was not compacted", after.Size(), len(raw))
	}
	if ms, ok := closed["close_ms"].(float64); !ok || ms < 0 {
		t.Errorf("store closed: close_ms = %v, want a duration in ms", closed["close_ms"])
	}
}
