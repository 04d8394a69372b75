package qec

import (
	"fmt"
	"testing"

	"radqec/internal/dem"
	"radqec/internal/matching"
	"radqec/internal/rng"
)

func TestDEMRepetitionGeometry(t *testing.T) {
	c := mustRep(t, 5)
	m := c.DEM()
	w := dem.Weight
	if m.NumStabs != 4 || m.Layers != 3 {
		t.Fatalf("detector grid = %dx%d", m.NumStabs, m.Layers)
	}
	// Chain distances at equal layers: |i - j| mechanisms.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := i - j
			if want < 0 {
				want = -want
			}
			if got := m.Dist(i, 0, j, 0); got != int64(want)*w {
				t.Fatalf("Dist(%d,0,%d,0) = %d, want %d", i, j, got, int64(want)*w)
			}
		}
	}
	// Time-separated detectors add one time mechanism per layer.
	if got := m.Dist(0, 0, 2, 2); got != 4*w {
		t.Fatalf("Dist(0,0,2,2) = %d, want %d", got, 4*w)
	}
	// Boundary distances: min(i+1, d-1-i) hops through end data qubits.
	wantB := []int{1, 2, 2, 1}
	for i, want := range wantB {
		if got := m.BoundaryDist(i); got != int64(want)*w {
			t.Fatalf("BoundaryDist(%d) = %d, want %d", i, got, int64(want)*w)
		}
	}
}

func TestDEMPathFlipSets(t *testing.T) {
	c := mustRep(t, 5)
	m := c.DEM()
	// Chain stab 0 -> stab 2 crosses data qubits 1 and 2.
	flips := m.PathFlips(0, 2)
	if len(flips) != 2 {
		t.Fatalf("PathFlips(0,2) = %v", flips)
	}
	seen := map[int]bool{}
	for _, d := range flips {
		seen[d] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("path 0->2 flips %v, want data 1 and 2", flips)
	}
	// Boundary path from stab 0 flips data 0 (the left end).
	if f := m.BoundaryFlips(0); len(f) != 1 || f[0] != 0 {
		t.Fatalf("BoundaryFlips(0) = %v", f)
	}
	// Boundary path from stab 3 flips data 4 (the right end).
	if f := m.BoundaryFlips(3); len(f) != 1 || f[0] != 4 {
		t.Fatalf("BoundaryFlips(3) = %v", f)
	}
}

func TestDEMXXZZConnected(t *testing.T) {
	c := mustXXZZ(t, 3, 3)
	m := c.DEM()
	if m.NumStabs != 4 {
		t.Fatalf("numStabs = %d", m.NumStabs)
	}
	for i := 0; i < m.NumStabs; i++ {
		if m.BoundaryDist(i) < 1 {
			t.Fatalf("stab %d boundary distance %d", i, m.BoundaryDist(i))
		}
		for j := 0; j < m.NumStabs; j++ {
			if i != j && m.Dist(i, 0, j, 0) < 1 {
				t.Fatalf("Dist(%d,0,%d,0) = %d", i, j, m.Dist(i, 0, j, 0))
			}
		}
	}
}

func TestDEMFlipSetsMatchDistances(t *testing.T) {
	// The flip set realising a shortest spatial chain must
	// contain exactly dist/w data qubits; same for boundary paths.
	for _, c := range []*Code{mustRep(t, 15), mustXXZZ(t, 3, 5), mustXXZZ(t, 5, 3)} {
		m := c.DEM()
		w := dem.Weight
		for i := 0; i < m.NumStabs; i++ {
			for j := 0; j < m.NumStabs; j++ {
				if i == j || m.Dist(i, 0, j, 0) < 0 {
					continue
				}
				if got := int64(len(m.PathFlips(i, j))) * w; got != m.Dist(i, 0, j, 0) {
					t.Fatalf("%s: |PathFlips(%d,%d)|·w = %d, dist = %d",
						c.Name, i, j, got, m.Dist(i, 0, j, 0))
				}
			}
			if bd := m.BoundaryDist(i); bd > 0 {
				if got := int64(len(m.BoundaryFlips(i))) * w; got != bd {
					t.Fatalf("%s: |BoundaryFlips(%d)|·w = %d, bdist = %d",
						c.Name, i, got, bd)
				}
			}
		}
	}
}

// bellmanFord returns the unit-weight distances from node src over m's
// explicit space-time edge list, boundary excluded (-1 unreachable): an
// oracle for Dist that never reads the model's distance table.
func bellmanFord(m *dem.Model, src int) []int64 {
	dist := make([]int64, len(m.Adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	relax := func(from, to int) bool {
		if dist[from] < 0 || (dist[to] >= 0 && dist[from]+dem.Weight >= dist[to]) {
			return false
		}
		dist[to] = dist[from] + dem.Weight
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, e := range m.Edges {
			if e.U == m.Boundary || e.V == m.Boundary {
				continue
			}
			if relax(e.U, e.V) {
				changed = true
			}
			if relax(e.V, e.U) {
				changed = true
			}
		}
	}
	return dist
}

func TestSpacetimeDistancesMatchFigureCodes(t *testing.T) {
	// Dist is the spatial distance plus Weight per layer of separation.
	// That holds because the space-time graph without its boundary is
	// the product of the spatial graph and the layer path; a search over
	// the explicit edge list checks it on every figure code, including
	// the 2-D XXZZ geometries, from every detector.
	var codes []*Code
	for _, rounds := range []int{2, 3, 9} {
		for _, d := range RepetitionDistances() {
			c, err := NewRepetitionRounds(d, rounds)
			if err != nil {
				t.Fatal(err)
			}
			codes = append(codes, c)
		}
		for _, dd := range XXZZDistances() {
			c, err := NewXXZZRounds(dd[0], dd[1], rounds)
			if err != nil {
				t.Fatal(err)
			}
			codes = append(codes, c)
		}
	}
	for _, c := range codes {
		m := c.DEM()
		for s1 := 0; s1 < m.NumStabs; s1++ {
			for t1 := 0; t1 < m.Layers; t1++ {
				want := bellmanFord(m, m.Node(s1, t1))
				for s2 := 0; s2 < m.NumStabs; s2++ {
					for t2 := 0; t2 < m.Layers; t2++ {
						if got := m.Dist(s1, t1, s2, t2); got != want[m.Node(s2, t2)] {
							t.Fatalf("%s rounds %d: Dist(%d,%d,%d,%d) = %d, Bellman-Ford %d",
								c.Name, c.Rounds, s1, t1, s2, t2, got, want[m.Node(s2, t2)])
						}
					}
				}
			}
		}
	}
}

func TestDetectionEventsOnCleanRecord(t *testing.T) {
	c := mustXXZZ(t, 3, 3)
	bits := cleanRun(t, c, 3)
	if defects := c.detectionEvents(nil, bits); len(defects) != 0 {
		t.Fatalf("clean record produced defects: %v", defects)
	}
	checkTileEvents(t, c, bits)
}

// checkTileEvents holds the defect list decodeTile's miss tier hands
// the matcher for a one-lane record to the oracle's detectionEvents.
func checkTileEvents(t *testing.T, c *Code, bits []int) {
	t.Helper()
	var got []defect
	record := func(_ *Code, _ *decodeBuf, defects []defect) (uint64, bool) {
		got = append(got[:0], defects...)
		return 0, false
	}
	rec := make([]uint64, len(bits))
	for i, b := range bits {
		rec[i] = uint64(b)
	}
	var out [1]uint64
	c.decodeTile(rec, 1, []uint64{1}, out[:], newParityMemo(c.detectorBits()), record)
	want := c.detectionEvents(nil, bits)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("miss tier matched %v, oracle events %v", got, want)
	}
}

func TestDetectionEventsLayering(t *testing.T) {
	c := mustRep(t, 5)
	base := cleanRun(t, c, 3)
	// A flip in round 0 only -> defects at layers 0 (appearance) and 1
	// (disappearance) for that stabilizer.
	bits := append([]int(nil), base...)
	bits[c.C0.Start+2] ^= 1
	defects := c.detectionEvents(nil, bits)
	if len(defects) != 2 {
		t.Fatalf("defects = %v", defects)
	}
	for _, d := range defects {
		if d.stab != 2 {
			t.Fatalf("wrong stabilizer: %v", defects)
		}
	}
	if !((defects[0].round == 0 && defects[1].round == 1) ||
		(defects[0].round == 1 && defects[1].round == 0)) {
		t.Fatalf("wrong layers: %v", defects)
	}
	checkTileEvents(t, c, bits)
	// A final-readout flip on data 2 -> defects at layer 2 on stabs 1,2.
	bits = append([]int(nil), base...)
	bits[c.DataRead.Start+2] ^= 1
	defects = c.detectionEvents(nil, bits)
	if len(defects) != 2 {
		t.Fatalf("readout defects = %v", defects)
	}
	for _, d := range defects {
		if d.round != 2 || (d.stab != 1 && d.stab != 2) {
			t.Fatalf("readout defect misplaced: %v", defects)
		}
	}
	checkTileEvents(t, c, bits)
}

func TestMatchDefectsEmpty(t *testing.T) {
	c := mustRep(t, 5)
	flips := c.matchDefects(new(decodeBuf), nil, (*matching.Workspace).MinWeightPerfectMatching)
	for d, f := range flips {
		if f {
			t.Fatalf("no-defect correction flipped data %d", d)
		}
	}
}

// TestMatchDefectsGraphHasImagePrefix pins the shape of the graph
// matchDefects hands the matcher, the premise of the blossom's
// image-pairing replay (see matching.Workspace): weights ≥ 0, and the
// incident edges of each boundary image nd+j begin with images nd…nd+j-1
// in ascending order at weight 0. matching's
// TestImageReplayFiresOnDecoderGraphs pins that graphs of this shape
// take the replay. Dense random records reach past 36 defects on the
// deepest memory codes.
func TestMatchDefectsGraphHasImagePrefix(t *testing.T) {
	codes := []*Code{}
	for _, r := range []int{2, 5, 9} {
		for _, build := range []func() (*Code, error){
			func() (*Code, error) { return NewRepetitionRounds(5, r) },
			func() (*Code, error) { return NewRepetitionRounds(9, r) },
			func() (*Code, error) { return NewXXZZRounds(3, 3, r) },
		} {
			c, err := build()
			if err != nil {
				t.Fatal(err)
			}
			codes = append(codes, c)
		}
	}
	src := rng.New(61)
	buf := new(decodeBuf)
	maxK := 0
	for _, c := range codes {
		rec := randomRecord(t, c, src)
		for lane := uint(0); lane < 64; lane++ {
			defects := c.detectionEvents(nil, unpackLane(rec, lane))
			nd := len(defects)
			maxK = max(maxK, nd)
			c.matchDefects(buf, defects, func(ws *matching.Workspace, n int, edges []matching.Edge) ([]int, error) {
				if n != 2*nd {
					t.Fatalf("%s: %d vertices for %d defects", c.Name, n, nd)
				}
				incident := make([][]matching.Edge, n)
				for _, e := range edges {
					if e.W < 0 {
						t.Fatalf("%s: negative weight %v", c.Name, e)
					}
					incident[e.I] = append(incident[e.I], e)
					incident[e.J] = append(incident[e.J], e)
				}
				for j := nd + 1; j < n; j++ {
					if len(incident[j]) < j-nd {
						t.Fatalf("%s: image %d has %d edges", c.Name, j, len(incident[j]))
					}
					for i, e := range incident[j][:j-nd] {
						if other := e.I + e.J - j; other != nd+i || e.W != 0 {
							t.Fatalf("%s (k=%d): edge %d of image %d is %v, want image %d at weight 0",
								c.Name, nd, i, j, e, nd+i)
						}
					}
				}
				return ws.MinWeightPerfectMatching(n, edges)
			})
		}
	}
	if maxK < 36 {
		t.Fatalf("largest defect count %d, want memory-deep's 36 covered", maxK)
	}
}
