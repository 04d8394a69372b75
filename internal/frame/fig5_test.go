package frame_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/exp"
	"radqec/internal/frame"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/stats"
	"radqec/internal/sweep"
)

// TestBatchMatchesScalarOnFig5: all 160 points of Figure 5 — every
// temporal sample of the strike, so every mix of gap-arm and word-arm
// qubits, against every intrinsic rate from 1e-8 to the dense 1e-1 —
// as the program runs them (the fig5 experiment, batch engine) and on the
// scalar oracle, which shares the kernel's physics (the struck
// reference of a saturated root, and the XXZZ approximation of the
// fractional neighbours) and none of its sampling. The oracle's points are rebuilt
// here from exp.Fig5PhysicalRates and exp.Fig5Root with fig5's keys and
// seeds.
func TestBatchMatchesScalarOnFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("3.2M scalar-engine shots")
	}
	shots := 20000
	if frame.RaceEnabled {
		shots /= 10
	}
	cfg := exp.Config{Seed: 77, Shots: shots, Engine: exp.EngineBatch, Decoder: exp.DecoderMWPM}
	var mu sync.Mutex
	batch := map[string]sweep.Counts{}
	cfg.OnPoint = func(r sweep.Result) {
		mu.Lock()
		batch[r.Key] = r.Counts
		mu.Unlock()
	}
	fig5, _ := exp.Find("fig5")
	if _, err := fig5.Run(cfg); err != nil {
		t.Fatal(err)
	}

	rep, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	xxzz, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	scalar := map[string]sweep.Counts{}
	for ji, j := range []struct {
		code *qec.Code
		topo arch.Topology
	}{{rep, arch.Mesh(5, 2)}, {xxzz, arch.Mesh(5, 4)}} {
		tr, err := arch.Transpile(j.code.Circ, j.topo)
		if err != nil {
			t.Fatal(err)
		}
		dist := j.topo.Graph.AllPairsShortestPaths()
		for pi, phys := range exp.Fig5PhysicalRates() {
			for k, rootProb := range noise.TemporalSamples(noise.DefaultSamples) {
				ev := noise.NewRadiationEvent(dist[exp.Fig5Root], rootProb, true)
				seed := cfg.Seed + uint64(ji*1000003+pi*1009+k*13)
				camp := &frame.ScalarCampaign{
					Sim:      frame.NewScalar(tr.Circuit, noise.NewDepolarizing(phys), ev, seed),
					Decode:   j.code.Decode,
					Expected: j.code.ExpectedLogical(),
				}
				var c sweep.Counts
				c.Shots, c.Errors = camp.RunFrom(seed, 0, shots)
				scalar[fmt.Sprintf("fig5/%s/p%.0e/t%d", j.code.Name, phys, k)] = c
			}
		}
	}
	if len(batch) != 160 || len(scalar) != 160 {
		t.Fatalf("fig5 has %d batched and %d scalar points, want 160", len(batch), len(scalar))
	}
	var sum, worst float64
	var worstKey string
	for key, b := range batch {
		s, ok := scalar[key]
		if !ok {
			t.Fatalf("batched point %s has no scalar twin", key)
		}
		z := stats.TwoSampleZ(b.Errors, b.Shots, s.Errors, s.Shots)
		sum += z
		if math.Abs(z) > math.Abs(worst) {
			worst, worstKey = z, key
		}
	}
	// 160 two-sided draws: max |z| >= 4.5 once in 900 seeds for equal
	// samplers; the mean of 160 unit-variance scores has σ = 0.079, so
	// 0.35 is 4.4σ — a one-sided bias of a tenth of a standard error
	// per point would show.
	t.Logf("worst z %.2f at %s, mean z %.3f", worst, worstKey, sum/160)
	if math.Abs(worst) >= 4.5 {
		t.Errorf("%s: batched %+v vs scalar %+v, z = %.2f", worstKey, batch[worstKey], scalar[worstKey], worst)
	}
	if mean := sum / 160; math.Abs(mean) >= 0.35 {
		t.Errorf("mean z over the 160 points is %.3f: the batched engine is biased against the scalar one", mean)
	}
}
