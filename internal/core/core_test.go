package core

import (
	"testing"

	"radqec/internal/arch"
	"radqec/internal/noise"
	"radqec/internal/qec"
)

// TestEngineRunnerScalarDecodeInert: NewEngineRunner's scalar decode
// argument is inert — both engines decode through decodeTile — so a nil
// scalar decoder, or one that is always wrong, counts exactly what
// code.Decode does, on a range that starts and ends mid-word.
func TestEngineRunnerScalarDecodeInert(t *testing.T) {
	code, err := qec.NewRepetition(3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	ev := noise.NewRadiationEvent(tr.Topo.Graph.AllPairsShortestPaths()[2], 1.0, true)
	wrong := func([]int) int { return 1 - code.ExpectedLogical() }
	for _, engine := range Engines() {
		counts := func(decode func([]int) int) [2]int {
			run := NewEngineRunner(engine, tr.Circuit, noise.NewDepolarizing(0.05), ev, 99,
				code.ExpectedLogical(), decode, code.DecodeTile, 0, 1)
			var c [2]int
			c[0], c[1] = run(37, 700)
			return c
		}
		want := counts(code.Decode)
		if want[0] != 700 || want[1] == 0 || want[1] == 700 {
			t.Fatalf("%s: counts (shots, errors) %v do not tell decoders apart", engine, want)
		}
		for name, decode := range map[string]func([]int) int{"nil": nil, "always-wrong": wrong} {
			if got := counts(decode); got != want {
				t.Fatalf("%s: %s scalar decode counts %v, code.Decode %v", engine, name, got, want)
			}
		}
	}
}
