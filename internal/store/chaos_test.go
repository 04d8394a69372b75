package store

// Chaos suite for the store: fault-injected writes, mid-segment
// corruption, and degraded-mode recovery. Every test asserts the store
// degrades — serving reads, quarantining rot, re-arming writes — and
// never poisons itself over a transient or localised fault.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"radqec/internal/faultinject"
	"radqec/internal/sweep"
)

// chaosOpts keeps retry backoff out of the test wall-clock.
var chaosOpts = Options{retryBackoff: 50 * time.Microsecond, probeInterval: time.Hour}

func pt(key string, shots, errs int) sweep.CachedPoint {
	return sweep.CachedPoint{Key: key, Shots: shots, Errors: errs, Batches: 1}
}

// TestChaosTransientWriteErrorDoesNotDisableCaching: a one-shot
// injected write error must be absorbed by the retry path — the store
// keeps caching for the rest of the process lifetime instead of
// disarming writes on first fault.
func TestChaosTransientWriteErrorDoesNotDisableCaching(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openT(t, dir, chaosOpts)
	if err := faultinject.Enable(faultinject.StoreWriteError, "error*1"); err != nil {
		t.Fatal(err)
	}
	s.Commit("h1", pt("k1", 8, 1))
	if err := s.Err(); err != nil {
		t.Fatalf("one transient write error left the store faulted: %v", err)
	}
	st := s.Stats()
	if st.Degraded {
		t.Fatal("one transient write error degraded the store")
	}
	if st.WriteRetries == 0 {
		t.Fatal("injected write error did not register a retry")
	}
	if st.WriteErrors != 0 {
		t.Fatalf("retried write counted as exhausted: %+v", st)
	}
	// Caching still works after the fault — this commit must persist.
	s.Commit("h2", pt("k2", 16, 3))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openT(t, dir, Options{})
	for _, h := range []string{"h1", "h2"} {
		if _, ok := r.Lookup(h); !ok {
			t.Fatalf("%s lost after a retried transient write error", h)
		}
	}
}

// TestChaosPersistentWriteFailureDegradesAndRecovers: exhausting the
// retry budget flips the store into read-through/no-write mode; reads
// keep serving, and a Probe after the fault clears re-arms writes.
func TestChaosPersistentWriteFailureDegradesAndRecovers(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openT(t, dir, chaosOpts)
	s.Commit("h1", pt("k1", 8, 1))
	if err := faultinject.Enable(faultinject.StoreWriteError, "error"); err != nil {
		t.Fatal(err)
	}
	s.Commit("h2", pt("k2", 16, 3))
	st := s.Stats()
	if !st.Degraded {
		t.Fatalf("persistent write failure did not degrade the store: %+v", st)
	}
	if st.WriteErrors == 0 {
		t.Fatal("exhausted write not counted")
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("Err() = %v, want a degraded-mode error", err)
	}
	// Read-through: the pre-fault commit still serves.
	if _, ok := s.Lookup("h1"); !ok {
		t.Fatal("degraded store stopped serving reads")
	}
	// Writes drop silently while degraded.
	s.Commit("h3", pt("k3", 4, 0))
	if _, ok := s.Lookup("h3"); ok {
		t.Fatal("degraded store accepted a write")
	}
	// Probe with the fault still active: stays degraded.
	if s.Probe() {
		t.Fatal("probe succeeded while the fault is still injected")
	}
	// Fault clears; the probe re-arms writes.
	faultinject.Disable(faultinject.StoreWriteError)
	if !s.Probe() {
		t.Fatal("probe failed after the fault cleared")
	}
	st = s.Stats()
	if st.Degraded || st.Recoveries != 1 {
		t.Fatalf("store did not recover: %+v", st)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("recovered store still faulted: %v", err)
	}
	s.Commit("h4", pt("k4", 32, 5))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openT(t, dir, Options{})
	if _, ok := r.Lookup("h4"); !ok {
		t.Fatal("post-recovery commit lost")
	}
	if _, ok := r.Lookup("h2"); ok {
		t.Fatal("commit dropped during the outage resurrected on reopen")
	}
}

// TestChaosBackgroundProbeRearmsWrites: the degraded store's own
// ticker-driven probe recovers without any explicit Probe call.
func TestChaosBackgroundProbeRearmsWrites(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	opts := chaosOpts
	opts.probeInterval = 5 * time.Millisecond
	s := openT(t, dir, opts)
	if err := faultinject.Enable(faultinject.StoreWriteError, "error*4"); err != nil {
		t.Fatal(err)
	}
	s.Commit("h1", pt("k1", 8, 1)) // 4 attempts all fail -> degrade
	if !s.Stats().Degraded {
		t.Fatal("store did not degrade")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Degraded {
		if time.Now().After(deadline) {
			t.Fatal("background probe never re-armed writes")
		}
		time.Sleep(time.Millisecond)
	}
	s.Commit("h2", pt("k2", 16, 3))
	if _, ok := s.Lookup("h2"); !ok {
		t.Fatal("write dropped after background recovery")
	}
}

// corruptLine flips one byte inside line i of the segment (inside the
// record payload, past the envelope prefix) — committed-record bit rot.
func corruptLine(t *testing.T, dir string, i int) {
	t.Helper()
	path := filepath.Join(dir, SegmentName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if i >= len(lines) || len(lines[i]) < 40 {
		t.Fatalf("segment has no line %d to corrupt", i)
	}
	// Flip a digit near the middle of the line: the JSON often stays
	// well-formed, so only the checksum can catch it.
	line := lines[i]
	for j := len(line) / 2; j < len(line)-1; j++ {
		if line[j] >= '0' && line[j] <= '9' {
			line[j] = '0' + ('9'-line[j])%10
			break
		}
	}
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosMidSegmentCorruptionQuarantined: a flipped byte inside a
// committed mid-segment record is quarantined on replay — later
// records still serve, the segment stays appendable, and Stats reports
// the quarantine.
func TestChaosMidSegmentCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Commit("h1", pt("k1", 8, 1))
	s.Commit("h2", pt("k2", 16, 3))
	s.Commit("h3", pt("k3", 32, 5))
	s.Close()
	corruptLine(t, dir, 1) // h2's record
	r := openT(t, dir, Options{})
	st := r.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (stats %+v)", st.Quarantined, st)
	}
	if st.Commits != 2 {
		t.Fatalf("commits = %d, want the 2 intact records", st.Commits)
	}
	if _, ok := r.Lookup("h1"); !ok {
		t.Fatal("record before the corruption lost")
	}
	if _, ok := r.Lookup("h3"); !ok {
		t.Fatal("record after the corruption lost — corruption treated as torn tail")
	}
	if _, ok := r.Lookup("h2"); ok {
		t.Fatal("corrupt record served")
	}
	// The segment stays appendable past quarantined damage.
	r.Commit("h4", pt("k4", 64, 9))
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := openT(t, dir, Options{})
	for _, h := range []string{"h1", "h3", "h4"} {
		if _, ok := r2.Lookup(h); !ok {
			t.Fatalf("%s missing after append-past-quarantine reopen", h)
		}
	}
}

// TestChaosCRCCatchesSemanticFlip: a digit flip that keeps the line
// valid JSON — undetectable structurally — is still caught by the
// CRC32C envelope instead of silently serving wrong counts.
func TestChaosCRCCatchesSemanticFlip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Commit("h1", pt("k1", 1000, 37))
	s.Commit("h2", pt("k2", 2000, 74))
	s.Close()
	corruptLine(t, dir, 0)
	// The corrupted line must still be valid JSON for this test to
	// exercise the CRC (not the JSON parser).
	lines := segmentLines(t, dir)
	var probe map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &probe); err != nil {
		t.Skipf("flip broke JSON framing (%v); the parser path is covered elsewhere", err)
	}
	r := openT(t, dir, Options{})
	if _, ok := r.Lookup("h1"); ok {
		t.Fatal("CRC missed a semantic digit flip")
	}
	if st := r.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if _, ok := r.Lookup("h2"); !ok {
		t.Fatal("intact record after the flip lost")
	}
}

// TestChaosBareLineRejected: a line without a valid {"crc","rec"}
// envelope — a well-formed record a pre-CRC release would have written
// — is handled exactly like a CRC mismatch: never served, quarantined,
// and the valid enveloped records after it are kept.
func TestChaosBareLineRejected(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Commit("h1", pt("k1", 16, 2))
	s.Close()
	bare := `{"kind":"commit","hash":"old1","point":{"key":"k1","shots":8,"errors":1,"batch_rates":[0.125]}}` + "\n" +
		`{"kind":"ckpt","hash":"old2","point":{"key":"k2","shots":4,"errors":0,"batch_rates":[0]}}` + "\n"
	enveloped := strings.Join(segmentLines(t, dir), "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, SegmentName), []byte(bare+enveloped), 0o644); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{})
	if _, ok := r.Lookup("old1"); ok {
		t.Fatal("bare commit line served")
	}
	if _, ok := r.LookupPartial("old2"); ok {
		t.Fatal("bare checkpoint line served")
	}
	if st := r.Stats(); st.Quarantined != 2 || st.Commits != 1 {
		t.Fatalf("quarantined = %d, commits = %d; want the 2 bare lines quarantined beside 1 commit", st.Quarantined, st.Commits)
	}
	if got, ok := r.Lookup("h1"); !ok || got.Shots != 16 {
		t.Fatalf("enveloped record after the bare lines lost: %+v, %v", got, ok)
	}
	r.Commit("new1", pt("k3", 16, 2))
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := openT(t, dir, Options{})
	for _, h := range []string{"h1", "new1"} {
		if _, ok := r2.Lookup(h); !ok {
			t.Fatalf("%s lost across a reopen past the rejected lines", h)
		}
	}
}

// TestChaosSlowWriteFailpointDelaysButSucceeds: the slow-write
// failpoint stalls the append without failing it — latency injection
// must not register as a fault.
func TestChaosSlowWriteFailpointDelaysButSucceeds(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s := openT(t, dir, chaosOpts)
	if err := faultinject.Enable(faultinject.StoreWriteSlow, "sleep(20ms)*1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s.Commit("h1", pt("k1", 8, 1))
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("slow-write failpoint did not stall: %v", d)
	}
	st := s.Stats()
	if st.Degraded || st.WriteErrors != 0 || st.WriteRetries != 0 {
		t.Fatalf("latency injection registered as a fault: %+v", st)
	}
	if _, ok := s.Lookup("h1"); !ok {
		t.Fatal("stalled write lost")
	}
}
