package store

import (
	"os"
	"path/filepath"
	"testing"

	"radqec/internal/sweep"
	"radqec/internal/telemetry"
)

// Hashes in testdata/legacy-fig5.ndjson: three fig5 points of
// `radqec -store D -seed 7 fig5` (2000 shots, four 512-aligned batches
// each), written while a record carried its per-batch rate stream
// (`batch_rates`) instead of a batch count. The first point's trail is
// whole (three checkpoints and the commit); the second stops after two
// checkpoints and the third after three, as a killed run leaves them.
const (
	legacyCommitted = "f50cdcd3e2a056c52d2e9f102615407e23c7668ae61452e8418c0c4d578d75d4"
	legacyAt2       = "8a48b345d265db31c47198bddc64d3322cdf0614c77c5f1823edcaf7cb553bd0"
	legacyAt3       = "2804dae9f63bd642ef80f6ac72247ee32cd937f893f476f87b5344dddc158a2c"
)

// openLegacy opens a private copy of the legacy segment.
func openLegacy(t *testing.T) *Store {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-fig5.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SegmentName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return openT(t, dir, Options{})
}

// TestLegacyBatchRatesRestoreBatchCount: a record that carries
// `batch_rates` and no `batches` still resumes and replays with the
// batch count it was written with — the length of its rate stream. A
// commit is folded to that count when it is indexed; a checkpoint stays
// raw.
func TestLegacyBatchRatesRestoreBatchCount(t *testing.T) {
	s := openLegacy(t)
	if p, ok := s.Lookup(legacyCommitted); !ok || p.Shots != 2000 || p.Batches != 4 || p.BatchRates != nil {
		t.Fatalf("%.12s: %+v, %v; want 2000 shots in 4 batches and no batch rates", legacyCommitted, p, ok)
	}
	for _, c := range []struct {
		hash         string
		shots, rates int
	}{
		{legacyAt2, 1024, 2},
		{legacyAt3, 1536, 3},
	} {
		p, ok := s.LookupPartial(c.hash)
		if !ok || p.Shots != c.shots || p.Batches != 0 || len(p.BatchRates) != c.rates {
			t.Fatalf("%.12s: %+v, %v; want %d shots and %d batch rates", c.hash, p, ok, c.shots, c.rates)
		}
	}

	// The resumed points run their remaining batches on a runner that
	// counts no errors; the committed one must never build its runner.
	runner := func() sweep.BatchRunner {
		return func(start, n int) sweep.Counts { return sweep.Counts{Shots: n} }
	}
	tel := telemetry.NewCampaign(1, "fig5")
	cfg := sweep.Config{
		Policy:    sweep.Policy{Shots: 2000, Align: 512},
		Mechanism: sweep.Mechanism{Workers: 1, Cache: s, Telemetry: tel},
	}
	res := mustRun(t, cfg, []sweep.Point{
		{Key: "committed", Hash: legacyCommitted, Prepare: func() sweep.BatchRunner {
			t.Error("a committed legacy point built its runner")
			return runner()
		}},
		{Key: "at2", Hash: legacyAt2, Prepare: runner},
		{Key: "at3", Hash: legacyAt3, Prepare: runner},
	})
	for i, want := range []struct{ shots, errors, batches int }{
		{2000, 42, 4}, {2000, 2, 4}, {2000, 0, 4},
	} {
		r := res[i]
		if r.Shots != want.shots || r.Errors != want.errors || r.Batches != want.batches {
			t.Errorf("%s: %d shots, %d errors, %d batches; want %d, %d, %d",
				r.Key, r.Shots, r.Errors, r.Batches, want.shots, want.errors, want.batches)
		}
	}
	if !res[0].Cached {
		t.Error("committed legacy point was not replayed")
	}
	// Each resumed point's first turn continues the parent's numbering.
	first := map[string]telemetry.Signal{}
	sigs, _ := tel.Since(0, telemetry.RingSize)
	for _, sg := range sigs {
		if _, seen := first[sg.Key]; !seen {
			first[sg.Key] = sg
		}
	}
	for key, want := range map[string][2]int{"at2": {2, 1024}, "at3": {3, 1536}} {
		if sg := first[key]; sg.Batch != want[0] || sg.Start != want[1] {
			t.Errorf("%s: first resumed turn is batch %d at shot %d, want batch %d at shot %d",
				key, sg.Batch, sg.Start, want[0], want[1])
		}
	}
}
