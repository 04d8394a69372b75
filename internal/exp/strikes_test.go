package exp

import (
	"fmt"
	"math"
	"testing"

	"radqec/internal/arch"
	"radqec/internal/core"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/rng"
)

// wilson999 is the Wilson score interval of k errors in n shots at the
// two-sided 99.9% normal quantile, the bound the benchmark's oracle
// probe compares the engines with.
func wilson999(k, n int) (lo, hi float64) {
	const z = 3.2905267314919255
	p, nf := float64(k)/float64(n), float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	return math.Max(0, center-half), math.Min(1, center+half)
}

// TestStrikesMatchTableau holds the batched engine to the tableau
// oracle, strike shape by strike shape, on the campaigns of the
// benchmark's oracle probe: xxzz-(3,3) on the 5×4 mesh, the first six
// used qubits as roots, seed ri·1009+7, 1% depolarizing noise, 4096
// shots on each engine.
//
// Saturated shapes are exact (the strike is compiled into the batched
// engine's reference, stab.StruckOf): the six roots as single erasures,
// and fig7-style erasures of connected size-k sets on the 5×6 mesh,
// must each overlap the tableau's 99.9% Wilson interval.
//
// Fractional shapes still take the collapsed-branch approximation on
// superposed sites. Their rows are a ratchet: on the root where the gap
// was widest when they were recorded (e5824de plus the struck
// reference), |batch − tableau| may not exceed that gap, in percentage
// points, plus 3.29 standard errors of the difference. A change that
// narrows one lowers its recorded value. Before the struck reference,
// the widest gaps on the six roots read 22.83 pp (p = 1, no spread) and
// 19.35 pp (p = 1, spread).
func TestStrikesMatchTableau(t *testing.T) {
	if testing.Short() {
		t.Skip("tableau campaigns")
	}
	shots := distributionShots(4096)
	grid, err := qec.NewXXZZ(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	gridTr, err := arch.Transpile(grid.Circ, arch.Mesh(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	dist := gridTr.Topo.Graph.AllPairsShortestPaths()
	roots := gridTr.Used()[:6]
	fig7Code, err := Config{}.Defaults().xxzz(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := prepare(fig7Code, arch.Mesh(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		name string
		code *qec.Code
		tr   *arch.Transpiled
		ev   *noise.RadiationEvent
		seed uint64
		// ratchet is the recorded gap in percentage points of a
		// fractional shape; saturated shapes have none (negative).
		ratchet float64
	}
	var shapes []shape
	for ri, root := range roots {
		shapes = append(shapes, shape{fmt.Sprintf("erasure/root%d", root), grid, gridTr,
			noise.NewRadiationEvent(dist[root], 1, false), uint64(ri*1009 + 7), -1})
	}
	src := rng.New(17)
	for _, k := range []int{2, 9, 15} {
		members := fig7.sampleUsedSubgraphs(k, 1, src)[0]
		shapes = append(shapes, shape{fmt.Sprintf("fig7-erase%d", k), fig7.code, fig7.tr,
			subgraphEvent(fig7.tr.Circuit.NumQubits, members, 1), uint64(k * 100), -1})
	}
	for _, f := range []struct {
		ri      int
		p       float64
		spread  bool
		ratchet float64
	}{
		{3, 1, true, 16.14},
		{1, 0.5, true, 9.84},
		{1, 0.5, false, 6.23},
		{5, 0.1, true, 1.76},
	} {
		shapes = append(shapes, shape{fmt.Sprintf("p%g/spread=%v/root%d", f.p, f.spread, roots[f.ri]), grid, gridTr,
			noise.NewRadiationEvent(dist[roots[f.ri]], f.p, f.spread), uint64(f.ri*1009 + 7), f.ratchet})
	}
	for _, s := range shapes {
		run := func(engine string) int {
			r := core.NewEngineRunner(engine, s.tr.Circuit, noise.NewDepolarizing(0.01), s.ev, s.seed,
				s.code.ExpectedLogical(), s.code.Decode, s.code.DecodeTile, 0, 0)
			_, errs := r(0, shots)
			return errs
		}
		b, tab := run(EngineBatch), run(EngineTableau)
		rb, rt := float64(b)/float64(shots), float64(tab)/float64(shots)
		gap := 100 * math.Abs(rb-rt)
		t.Logf("%s: batch %.4f, tableau %.4f, gap %.2f pp", s.name, rb, rt, gap)
		if s.ratchet < 0 {
			bLo, bHi := wilson999(b, shots)
			tLo, tHi := wilson999(tab, shots)
			if bLo > tHi || tLo > bHi {
				t.Errorf("%s: batch %.4f [%.4f, %.4f] vs tableau %.4f [%.4f, %.4f]: 99.9%% Wilson intervals apart",
					s.name, rb, bLo, bHi, rt, tLo, tHi)
			}
			continue
		}
		noisePP := 100 * 3.29 * math.Sqrt((rb*(1-rb)+rt*(1-rt))/float64(shots))
		if gap > s.ratchet+noisePP {
			t.Errorf("%s: gap %.2f pp exceeds the recorded %.2f pp plus %.2f pp of noise", s.name, gap, s.ratchet, noisePP)
		}
	}
}
