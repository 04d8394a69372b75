package main

import (
	"fmt"
	"math"

	"radqec/internal/arch"
	"radqec/internal/core"
	"radqec/internal/noise"
	"radqec/internal/qec"
)

// The oracle probe compares the default (batch) engine with the exact
// tableau engine on fixed campaigns. Its seeds and shot counts are
// constants, independent of -seed, so the figures compare exactly
// across commits: a change in either is a change in the engines, never
// sampling noise between runs.
const (
	oracleShots = 4096
	// oracleZ is the two-sided 99.9% normal quantile behind the hard
	// repetition-code check.
	oracleZ = 3.2905267314919255
)

// oraclePoint is one fixed campaign run on both engines.
type oraclePoint struct {
	Name            string
	Batch, Tableau  float64 // logical error rates
	BatchK, TableK  int     // error counts out of oracleShots
	IntervalsApart  bool    // the two 99.9% Wilson intervals do not overlap
	GapPercentPoint float64 // |batch - tableau| in percentage points
}

// wilson returns the Wilson score interval of k errors in n shots at
// normal quantile z.
func wilson(k, n int, z float64) (lo, hi float64) {
	p, nf := float64(k)/float64(n), float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	return math.Max(0, center-half), math.Min(1, center+half)
}

// oracleCompare runs one strike campaign on both engines.
func oracleCompare(name string, code *qec.Code, tr *arch.Transpiled, ev *noise.RadiationEvent, seed uint64) oraclePoint {
	run := func(engine string) int {
		r := core.NewEngineRunner(engine, tr.Circuit, noise.NewDepolarizing(0.01), ev, seed,
			code.ExpectedLogical(), code.Decode, code.DecodeTile, 0, childProcs)
		_, errs := r(0, oracleShots)
		return errs
	}
	p := oraclePoint{Name: name, BatchK: run(core.EngineBatch), TableK: run(core.EngineTableau)}
	p.Batch = float64(p.BatchK) / oracleShots
	p.Tableau = float64(p.TableK) / oracleShots
	p.GapPercentPoint = 100 * math.Abs(p.Batch-p.Tableau)
	bLo, bHi := wilson(p.BatchK, oracleShots, oracleZ)
	tLo, tHi := wilson(p.TableK, oracleShots, oracleZ)
	p.IntervalsApart = bLo > tHi || tLo > bHi
	return p
}

// oracleRepetition is the hard check: the batch engine is exact for
// radiation on repetition codes (every struck site holds a Z
// eigenstate), so on these points its rate must agree with the
// tableau's within the 99.9% Wilson intervals. A non-nil error fails
// the whole run.
func oracleRepetition() ([]oraclePoint, error) {
	code, err := qec.NewRepetition(5)
	if err != nil {
		return nil, err
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 2))
	if err != nil {
		return nil, err
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	var pts []oraclePoint
	for i, strike := range []struct {
		root   int
		prob   float64
		spread bool
	}{{2, 1.0, true}, {0, 1.0, false}, {5, 0.5, true}} {
		name := fmt.Sprintf("%s/root%d/p%g", code.Name, strike.root, strike.prob)
		ev := noise.NewRadiationEvent(dist[strike.root], strike.prob, strike.spread)
		p := oracleCompare(name, code, tr, ev, uint64(i*1009+11))
		pts = append(pts, p)
		if p.IntervalsApart {
			return pts, fmt.Errorf("oracle: %s: batch %.4f vs tableau %.4f at %d shots: 99.9%% Wilson intervals do not overlap",
				name, p.Batch, p.Tableau, oracleShots)
		}
	}
	return pts, nil
}

// oracleXXZZGap measures the default engine's known approximation debt:
// the largest |batch - tableau| logical error, in percentage points,
// over the six full-impact erasure roots of the d=3 XXZZ grid that
// BenchmarkFrameEnginesFig6XXZZ samples (same code, lattice, roots and
// seeds).
func oracleXXZZGap() (float64, error) {
	code, err := qec.NewXXZZ(3, 3)
	if err != nil {
		return 0, err
	}
	tr, err := arch.Transpile(code.Circ, arch.Mesh(5, 4))
	if err != nil {
		return 0, err
	}
	dist := tr.Topo.Graph.AllPairsShortestPaths()
	roots := tr.Used()
	if len(roots) > 6 {
		roots = roots[:6]
	}
	var gap float64
	for ri, root := range roots {
		ev := noise.NewRadiationEvent(dist[root], 1.0, false)
		p := oracleCompare(fmt.Sprintf("%s/root%d", code.Name, root), code, tr, ev, uint64(ri*1009+7))
		gap = math.Max(gap, p.GapPercentPoint)
	}
	return gap, nil
}
