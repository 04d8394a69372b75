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
		"seed":   {Shots: 64, Seed: 8},
		"shots":  {Shots: 65, Seed: 7},
		"engine": {Shots: 64, Seed: 7, Engine: EngineTableau},
		"ci":     {Shots: 64, Seed: 7, CI: 0.01},
		"rounds": {Shots: 64, Seed: 7, Rounds: 3}, // deeper circuit
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

// TestSpellingDoesNotMoveTheAddress: a campaign that leaves the engine
// and decoder empty and one that spells out their defaults address
// every point alike, whichever runs first, so the second Fig5 run
// against the same store is all cache hits with the first run's point
// records.
func TestSpellingDoesNotMoveTheAddress(t *testing.T) {
	empty := Config{Shots: 64, Seed: 11}
	spelled := Config{Shots: 64, Seed: 11, Engine: "batch", Decoder: "mwpm"}
	for name, order := range map[string][2]Config{"empty first": {empty, spelled}, "spelled first": {spelled, empty}} {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]map[string]sweep.Result
		for i, cfg := range order {
			runs[i] = map[string]sweep.Result{}
			cfg.Cache = st
			cfg.OnPoint = func(r sweep.Result) { runs[i][r.Key] = r }
			if _, err := Fig5(cfg); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		if len(runs[1]) != len(runs[0]) || len(runs[0]) == 0 {
			t.Fatalf("%s: the runs recorded %d and %d points", name, len(runs[0]), len(runs[1]))
		}
		for key, cold := range runs[0] {
			warm, ok := runs[1][key]
			if !ok || !warm.Cached {
				t.Fatalf("%s: point %s was not a cache hit on the second run", name, key)
			}
			if warm.Cached = false; warm != cold {
				t.Fatalf("%s: point %s replayed as %+v, computed as %+v", name, key, warm, cold)
			}
		}
	}
}

// TestExperimentsShareNoPoints: no two experiments run the same point.
// Every experiment runs once against one store, so a point an earlier
// experiment already computed would come back Cached — a table paid for
// twice by a run without -store.
func TestExperimentsShareNoPoints(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, e := range Experiments() {
		cfg := Config{Shots: 64, Seed: 3, NS: 2, Cache: st}
		cfg.OnPoint = func(r sweep.Result) {
			if r.Cached {
				t.Errorf("%s: point %s was already in the store: an earlier experiment ran it", e.Name, r.Key)
			}
		}
		if _, err := e.Run(cfg); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
}

// TestExperimentsStreamEachKeyOnce: within one experiment's stream no
// two points share a key, so a consumer of -json point records can
// tell every point apart (fig8 once keyed root<R>/t<K> within each
// (code, architecture) cell and repeated them across its cells).
func TestExperimentsStreamEachKeyOnce(t *testing.T) {
	for _, e := range Experiments() {
		seen := map[string]bool{}
		cfg := Config{Shots: 64, Seed: 3, NS: 2}
		cfg.OnPoint = func(r sweep.Result) {
			if seen[r.Key] {
				t.Errorf("%s: key %q streamed twice", e.Name, r.Key)
			}
			seen[r.Key] = true
		}
		if _, err := e.Run(cfg); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
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

	// Simulate the kill: a store holding only the checkpoint trail (no
	// commits), plus a torn final line — what SIGKILL mid-append leaves.
	// The trail is read after Sync, as a kill leaves it: a clean Close
	// compacts it away.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile(filepath.Join(coldDir, store.SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
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
	cancelAfterFirstPoint(t, base, st)
	assertResumes(t, base, st, ref)
}

// TestCleanCloseKeepsCheckpointsToResume: a store that a clean Close
// compacts keeps the latest checkpoint of every point a cancelled
// campaign left uncommitted, so the campaign resubmitted against the
// reopened store still starts those points at their checkpoints and
// prints the byte-identical table.
func TestCleanCloseKeepsCheckpointsToResume(t *testing.T) {
	base := Config{Shots: 1024, Seed: 12345, Workers: 1}
	ref, err := Threshold(base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An earlier campaign of eight batches a point leaves seven
	// superseded checkpoints behind each commit, so the Close below
	// rewrites the segment.
	earlier := base
	earlier.Seed, earlier.Shots, earlier.Cache = 1, 4096, st
	if _, err := Threshold(earlier); err != nil {
		t.Fatal(err)
	}
	cancelAfterFirstPoint(t, base, st)
	before := st.Stats()
	if before.Checkpoints == 0 {
		t.Fatal("the cancelled campaign left no checkpoints")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, store.SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if got, live := len(lines), before.Commits+before.Checkpoints; got != live {
		t.Fatalf("closed segment holds %d lines, want the %d live records", got, live)
	}
	if got := strings.Count(string(raw), `"kind":"ckpt"`); got != before.Checkpoints {
		t.Fatalf("closed segment holds %d checkpoints, want %d", got, before.Checkpoints)
	}
	reopened, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertResumes(t, base, reopened, ref)
}

// cancelAfterFirstPoint runs threshold on base against st and cancels
// it once the first point is done: with one worker every point has run
// its first batch by then, so the rest hold one checkpoint each.
func cancelAfterFirstPoint(t *testing.T, base Config, st *store.Store) {
	t.Helper()
	ctx, cancel := context.WithCancelCause(context.Background())
	cfg := base
	cfg.Cache = st
	cfg.Context = ctx
	cfg.OnPoint = func(sweep.Result) { cancel(errors.New("killed")) }
	threshold, _ := Find("threshold") // the registry's guard turns the abort into an error
	if _, err := threshold.Run(cfg); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

// assertResumes reruns threshold on base against st and demands ref's
// table, at least one point started past shot zero, and fewer engine
// shots than a cold run.
func assertResumes(t *testing.T, base Config, st *store.Store, ref *Table) {
	t.Helper()
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
