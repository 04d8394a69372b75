package exp

import (
	"math"
	"sync"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/stats"
	"radqec/internal/sweep"
)

// The batched kernel's regime rule (noise.LaneSampler) changed the
// draw order of every point with a strike probability in (0, 1/32) or
// a depolarizing rate of 1/32 and up, so byte-identity across commits
// cannot vouch for those arms. These tests do: the batched engine
// against the tableau engine the change did not touch, fixed seeds,
// z-score bounds that two samplers of one distribution pass but for one
// seed in a million. (The all-160-points fig5 check against the scalar
// frame oracle lives in internal/frame, beside the oracle.)

// pointCounts runs a figure and returns its points' counts by key.
func pointCounts(t *testing.T, run func(Config) (*Table, error), cfg Config) map[string]sweep.Counts {
	t.Helper()
	var mu sync.Mutex
	counts := map[string]sweep.Counts{}
	cfg.OnPoint = func(r sweep.Result) {
		mu.Lock()
		counts[r.Key] = r.Counts
		mu.Unlock()
	}
	if _, err := run(cfg.Defaults()); err != nil {
		t.Fatal(err)
	}
	return counts
}

// crossEngineShots and crossEngineZ size the cross-engine agreement
// tests: two independent samples of one distribution differ by less
// than four pooled standard errors but for one seed in 16 000.
const (
	crossEngineShots = 32768
	crossEngineZ     = 4.0
)

// batchAgreesWithTableau runs one point on the batched engine and on
// the tableau oracle and compares the two samples by their pooled
// z-score.
func batchAgreesWithTableau(t *testing.T, name string, cfg Config, p *prepared, ev *noise.RadiationEvent, seed uint64) {
	t.Helper()
	tabCfg, batchCfg := cfg, cfg
	tabCfg.Engine = EngineTableau
	batchCfg.Engine = EngineBatch
	tab := p0RateCounts(t, tabCfg, p, ev, seed)
	batch := p0RateCounts(t, batchCfg, p, ev, seed)
	if z := stats.TwoSampleZ(batch.Errors, batch.Shots, tab.Errors, tab.Shots); math.Abs(z) >= crossEngineZ {
		t.Errorf("%s: batched rate %v vs tableau %v: z = %.2f", name, batch.Rate(), tab.Rate(), z)
	}
	if tab.Errors == 0 || batch.Errors == 0 {
		t.Errorf("%s: campaign saw no errors (tableau %d, batch %d)", name, tab.Errors, batch.Errors)
	}
}

// distributionShots scales a test's shot count down under -race.
func distributionShots(n int) int {
	if raceEnabled {
		return n / 10
	}
	return n
}

// TestBatchMatchesTableauOnMovedArms: against the exact engine, where
// each arm that moved runs alone. Rep-(5,1) on the 5×2 mesh under a
// spreading strike of root probability 0.03 has every struck qubit on
// the gap arm (0.03 down to 0.03/25) over gap-arm 1% noise; threshold's
// p = 0.1 column is the dense depolarizing arm, error words and
// PauliWords, with no strike at all.
func TestBatchMatchesTableauOnMovedArms(t *testing.T) {
	if testing.Short() {
		t.Skip("tableau campaigns")
	}
	cfg := Config{Seed: 9, Shots: distributionShots(4 * crossEngineShots)}.Defaults()
	rep5, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := prepare(rep5, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	ev := sparse.strikeAt(5, 0.03, true)
	for q, p := range ev.Probs {
		if l := noise.Lanes(p); l.Arm != noise.LaneGaps {
			t.Fatalf("qubit %d struck with probability %v is not on the gap arm", q, p)
		}
	}
	batchAgreesWithTableau(t, "sparse strike", cfg, sparse, ev, 3)
	cfg.P = 0.1
	for _, d := range []int{3, 7, 11} {
		code, err := qec.NewRepetition(d)
		if err != nil {
			t.Fatal(err)
		}
		p, err := prepare(code, arch.Mesh(5, 6))
		if err != nil {
			t.Fatal(err)
		}
		batchAgreesWithTableau(t, code.Name+" at p = 0.1", cfg, p, noise.NoRadiation(p.tr.Circuit.NumQubits), 3)
	}
}
