package inject_test

import (
	"testing"

	"radqec/internal/arch"
	"radqec/internal/core"
	"radqec/internal/noise"
	"radqec/internal/qec"
)

// TestCampaignWorkerInvariance: core.NewEngineRunner's fan-out over the
// tableau engine — contiguous sub-ranges cut on the tile grid, run
// concurrently — counts exactly what one RunFrom on the caller's
// goroutine counts, at 1, 2, 3 and 8 workers, on ranges that straddle
// word (64-shot) and tile (512-shot) boundaries.
func TestCampaignWorkerInvariance(t *testing.T) {
	code, err := qec.NewRepetition(3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	ev := noise.NewRadiationEvent(tr.Topo.Graph.AllPairsShortestPaths()[2], 1.0, true)
	for _, r := range [][2]int{{0, 1500}, {100, 1}, {700, 0}, {37, 1000}, {500, 1100}, {1000, 2600}} {
		var want [2]int
		for _, workers := range []int{1, 2, 3, 8} {
			run := core.NewEngineRunner(core.EngineTableau, tr.Circuit, noise.NewDepolarizing(0.05), ev, 99,
				code.ExpectedLogical(), nil, code.DecodeTile, 0, workers)
			var got [2]int
			got[0], got[1] = run(r[0], r[1])
			if workers == 1 {
				if got[0] != r[1] {
					t.Fatalf("%v: ran %d shots", r, got[0])
				}
				want = got
			} else if got != want {
				t.Fatalf("%v: %d workers count (shots, errors) %v, one worker %v", r, workers, got, want)
			}
		}
	}
}
