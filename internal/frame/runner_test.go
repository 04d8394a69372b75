package frame_test

import (
	"testing"

	"radqec/internal/arch"
	"radqec/internal/circuit"
	"radqec/internal/core"
	"radqec/internal/noise"
	"radqec/internal/qec"
)

// workerRanges straddle word (64-shot) and tile (512-shot) boundaries
// at both ends. They run from empty and one-tile ranges, which the
// fan-out hands the engine whole, up to seven tiles, where eight workers
// clamp to one per tile.
var workerRanges = [][2]int{{0, 1500}, {100, 1}, {700, 0}, {37, 1000}, {500, 1100}, {1000, 2600}}

// assertWorkerInvariant: core.NewEngineRunner's fan-out — contiguous
// sub-ranges cut on the tile grid, run concurrently — counts exactly
// what one RunFrom on the caller's goroutine counts, at 1, 2, 3 and 8
// workers on every range.
func assertWorkerInvariant(t *testing.T, engine string, code *qec.Code, circ *circuit.Circuit, ev *noise.RadiationEvent, p float64) {
	t.Helper()
	for _, r := range workerRanges {
		var want [2]int
		for _, workers := range []int{1, 2, 3, 8} {
			run := core.NewEngineRunner(engine, circ, noise.NewDepolarizing(p), ev, 44,
				code.ExpectedLogical(), code.Decode, code.DecodeTile, 0, workers)
			var got [2]int
			got[0], got[1] = run(r[0], r[1])
			if workers == 1 {
				if got[0] != r[1] {
					t.Fatalf("%s %v: ran %d shots", engine, r, got[0])
				}
				want = got
			} else if got != want {
				t.Fatalf("%s %v: %d workers count (shots, errors) %v, one worker %v", engine, r, workers, got, want)
			}
		}
	}
}

// strikeSetup transpiles code onto a 5-row mesh of the given width and
// roots a full-impact spreading strike at physical qubit 2.
func strikeSetup(t *testing.T, code *qec.Code, cols int) (*circuit.Circuit, *noise.RadiationEvent) {
	t.Helper()
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, cols))
	if err != nil {
		t.Fatal(err)
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	return tr.Circuit, noise.NewRadiationEvent(dist[2], 1.0, true)
}

func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	circ, ev := strikeSetup(t, code, 2)
	assertWorkerInvariant(t, core.EngineBatch, code, circ, ev, 0.05)
}

func TestBatchXXZZDeterministicAcrossWorkers(t *testing.T) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	circ, ev := strikeSetup(t, code, 4)
	assertWorkerInvariant(t, core.EngineBatch, code, circ, ev, 0.05)
}
