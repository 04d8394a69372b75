package exp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/store"
	"radqec/internal/sweep"
	"radqec/internal/telemetry"
)

// fingerprintFor builds a small spec and fingerprints it under cfg.
func fingerprintFor(t *testing.T, cfg Config) string {
	t.Helper()
	cfg = cfg.Defaults()
	code, err := cfg.repetition(3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(code, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	fp := p.spec("fp/test", cfg, p.strikeAt(2, 0.5, true), cfg.Seed).fingerprint(cfg)
	return newAddresser().address(&fp)
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	base := Config{Shots: 64, Seed: 7}
	if a, b := fingerprintFor(t, base), fingerprintFor(t, base); a != b {
		t.Fatalf("same spec hashed differently: %s vs %s", a, b)
	}
	ref := fingerprintFor(t, base)
	for name, cfg := range map[string]Config{
		"seed":    {Shots: 64, Seed: 8},
		"shots":   {Shots: 65, Seed: 7},
		"engine":  {Shots: 64, Seed: 7, Engine: EngineTableau},
		"decoder": {Shots: 64, Seed: 7, Decoder: DecoderUF},
		"ci":      {Shots: 64, Seed: 7, CI: 0.01},
		"rounds":  {Shots: 64, Seed: 7, Rounds: 3}, // deeper circuit
	} {
		if got := fingerprintFor(t, cfg); got == ref {
			t.Errorf("changing %s did not move the fingerprint", name)
		}
	}
	// Seeds are written digit for digit: two above 2^53 that a float64
	// round trip would merge stay distinct.
	if a, b := fingerprintFor(t, Config{Shots: 64, Seed: 1<<64 - 1}), fingerprintFor(t, Config{Shots: 64, Seed: 1<<64 - 2}); a == b {
		t.Error("seeds 2^64-1 and 2^64-2 hashed identically")
	}
	// The empty default and its resolution hash identically: the
	// fingerprint records the engine that actually runs.
	if got := fingerprintFor(t, Config{Shots: 64, Seed: 7, Engine: EngineBatch}); got != ref {
		t.Error("default vs resolved batch engine hashed differently")
	}
}

// tableText renders a table the way the CLI does.
func tableText(t *testing.T, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	tab.WriteText(&buf)
	return buf.String()
}

// TestStoreResumeByteIdenticalTables is the acceptance-criterion test
// at the experiment level: a campaign killed mid-flight (its store
// left holding only batch checkpoints) and rerun against that store
// emits a byte-identical table to an uninterrupted run, and
// a warm re-run serves every point from the cache without touching the
// engines.
func TestStoreResumeByteIdenticalTables(t *testing.T) {
	// Shots spans two tile-aligned batches (alignUp(ceil(1024/8),
	// frame.TileShots) = 512), so the cold run leaves a checkpoint trail
	// for the kill to preserve.
	base := Config{Shots: 1024, Seed: 12345}
	ref, err := Threshold(base)
	if err != nil {
		t.Fatal(err)
	}
	want := tableText(t, ref)

	// Cold run against a fresh store: caching must not perturb output.
	coldDir := t.TempDir()
	st, err := store.Open(coldDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Cache = st
	cold, err := Threshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableText(t, cold); got != want {
		t.Fatalf("cold cached run diverged:\n%s\nvs\n%s", got, want)
	}
	st.Close()

	// Simulate the kill: a store holding only the checkpoint trail (no
	// commits), plus a torn final line — what SIGKILL mid-append leaves.
	lines, err := os.ReadFile(filepath.Join(coldDir, store.SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	var ckpts []string
	for _, ln := range strings.Split(strings.TrimRight(string(lines), "\n"), "\n") {
		if strings.Contains(ln, `"kind":"ckpt"`) {
			ckpts = append(ckpts, ln)
		}
	}
	if len(ckpts) == 0 {
		t.Fatal("cold run left no checkpoints")
	}
	killDir := t.TempDir()
	seg := strings.Join(ckpts, "\n") + "\n" + `{"kind":"commit","hash":"to`
	if err := os.WriteFile(filepath.Join(killDir, store.SegmentName), []byte(seg), 0o644); err != nil {
		t.Fatal(err)
	}
	killed, err := store.Open(killDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rcfg := base
	rcfg.Cache = killed
	var resumedCached int
	rcfg.OnPoint = func(r sweep.Result) {
		if r.Cached {
			resumedCached++
		}
	}
	resumed, err := Threshold(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableText(t, resumed); got != want {
		t.Fatalf("resumed run diverged from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if resumedCached != 0 {
		t.Fatalf("%d points served as committed from a checkpoint-only store", resumedCached)
	}

	// Warm re-run: every point replays from the now-committed store.
	wcfg := base
	wcfg.Cache = killed
	var points, cached int
	wcfg.OnPoint = func(r sweep.Result) {
		points++
		if r.Cached {
			cached++
		}
	}
	warm, err := Threshold(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableText(t, warm); got != want {
		t.Fatalf("warm run diverged:\n%s\nvs\n%s", got, want)
	}
	if points == 0 || cached != points {
		t.Fatalf("warm run: %d/%d points cached", cached, points)
	}
	killed.Close()
}

// TestCancelledStoreRunResumesWithoutAnOption: a -store run cancelled at
// a batch boundary and rerun with the same Config — there is no resume
// option to set — starts its interrupted points at their checkpoints
// (the first engine call of such a point begins past shot zero, and the
// rerun executes fewer shots than a cold run) and emits the
// byte-identical table. One worker makes the schedule exact: every
// point runs its first batch before the first point runs its second,
// finishes and triggers the cancel.
func TestCancelledStoreRunResumesWithoutAnOption(t *testing.T) {
	base := Config{Shots: 1024, Seed: 12345, Workers: 1}
	ref, err := Threshold(base)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithCancelCause(context.Background())
	cfg := base
	cfg.Cache = st
	cfg.Context = ctx
	cfg.OnPoint = func(sweep.Result) { cancel(errors.New("killed")) }
	threshold, _ := Find("threshold") // the registry's guard turns the abort into an error
	if _, err := threshold.Run(cfg); err == nil {
		t.Fatal("cancelled run reported success")
	}

	tel := telemetry.NewCampaign(1, "threshold")
	rcfg := base
	rcfg.Cache = st
	rcfg.Telemetry = tel
	rerun, err := Threshold(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tableText(t, rerun), tableText(t, ref); got != want {
		t.Fatalf("rerun diverged from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	sigs, _ := tel.Since(0, telemetry.RingSize)
	seen := make(map[string]bool)
	var resumed, engineShots int
	for _, s := range sigs {
		if s.CacheHit || s.Event != "" {
			continue
		}
		engineShots += s.Shots
		if !seen[s.Key] && s.Start > 0 {
			resumed++
		}
		seen[s.Key] = true
	}
	if resumed == 0 {
		t.Fatal("no interrupted point started from its checkpoint")
	}
	if cold := int(tel.Stats().PointsDone) * base.Shots; engineShots >= cold {
		t.Fatalf("rerun executed %d engine shots, a cold run executes %d", engineShots, cold)
	}
}

// TestSharedSchedulerMatchesPrivatePool: running an experiment on an
// external scheduler (the daemon configuration) produces the exact
// private-pool output.
func TestSharedSchedulerMatchesPrivatePool(t *testing.T) {
	base := Config{Shots: 200, Seed: 99}
	ref, err := Threshold(base)
	if err != nil {
		t.Fatal(err)
	}
	sched := sweep.NewScheduler(4)
	defer sched.Close()
	cfg := base
	cfg.Scheduler = sched
	got, err := Threshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tableText(t, got) != tableText(t, ref) {
		t.Fatal("shared-scheduler table diverged from private pool")
	}
}
