package dem

import "testing"

// repSpec builds the repetition-chain geometry: d data qubits, d-1
// weight-2 stabilizers.
func repSpec(d, rounds int) Spec {
	stabs := make([][]int, d-1)
	for s := range stabs {
		stabs[s] = []int{s, s + 1}
	}
	return Spec{Stabs: stabs, NumData: d, Rounds: rounds}
}

func mustCompile(t *testing.T, spec Spec) *Model {
	t.Helper()
	m, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompileRejectsBadSpecs(t *testing.T) {
	if _, err := Compile(repSpec(5, 1)); err == nil {
		t.Fatal("1-round spec accepted")
	}
	bad := repSpec(5, 2)
	bad.Stabs[0] = []int{0, 9}
	if _, err := Compile(bad); err == nil {
		t.Fatal("out-of-range stabilizer support accepted")
	}
}

func TestDistanceMatrixSymmetry(t *testing.T) {
	for _, spec := range []Spec{
		repSpec(7, 2),
		repSpec(5, 6),
		repSpec(9, 3),
	} {
		m := mustCompile(t, spec)
		for s1 := 0; s1 < m.NumStabs; s1++ {
			for s2 := 0; s2 < m.NumStabs; s2++ {
				for dt := 0; dt < m.Layers; dt++ {
					a := m.Dist(s1, 0, s2, dt)
					b := m.Dist(s2, 0, s1, dt)
					if a != b {
						t.Fatalf("Dist(%d,%d,dt=%d) asymmetric: %d vs %d", s1, s2, dt, a, b)
					}
					if c := m.Dist(s1, dt, s2, 0); c != a {
						t.Fatalf("Dist not time-reversal symmetric at (%d,%d,dt=%d)", s1, s2, dt)
					}
				}
			}
		}
	}
}

// bruteDist runs Bellman-Ford over the model's explicit edge list
// (boundary excluded) — an independent oracle for the cached distances.
func bruteDist(m *Model, src int) []int64 {
	n := len(m.Adj)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range m.Edges {
			if e.U == m.Boundary || e.V == m.Boundary {
				continue
			}
			if dist[e.U] >= 0 && (dist[e.V] == -1 || dist[e.U]+Weight < dist[e.V]) {
				dist[e.V] = dist[e.U] + Weight
				changed = true
			}
			if dist[e.V] >= 0 && (dist[e.U] == -1 || dist[e.V]+Weight < dist[e.U]) {
				dist[e.U] = dist[e.V] + Weight
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestSpacetimeDistancesMatchBruteForce(t *testing.T) {
	// Dist, read off the spatial table plus the layer gap, must agree
	// with a brute-force search over the explicit space-time edge list
	// from every layer, not just layer 0.
	m := mustCompile(t, repSpec(7, 4))
	for s1 := 0; s1 < m.NumStabs; s1++ {
		for t1 := 0; t1 < m.Layers; t1++ {
			brute := bruteDist(m, m.Node(s1, t1))
			for s2 := 0; s2 < m.NumStabs; s2++ {
				for t2 := 0; t2 < m.Layers; t2++ {
					want := brute[m.Node(s2, t2)]
					if got := m.Dist(s1, t1, s2, t2); got != want {
						t.Fatalf("Dist(%d,%d,%d,%d) = %d, brute force %d", s1, t1, s2, t2, got, want)
					}
				}
			}
		}
	}
}

func TestBoundaryPathMinimality(t *testing.T) {
	// Boundary distances must satisfy the triangle inequality against
	// every stabilizer-to-stabilizer chain, and the boundary flip set
	// must realise exactly the claimed weight.
	for _, spec := range []Spec{
		repSpec(9, 2),
		repSpec(8, 5),
	} {
		m := mustCompile(t, spec)
		for s := 0; s < m.NumStabs; s++ {
			bd := m.BoundaryDist(s)
			if bd < 0 {
				continue
			}
			if w := int64(len(m.BoundaryFlips(s))) * Weight; w != bd {
				t.Fatalf("stab %d: boundary flip set weighs %d, bdist %d", s, w, bd)
			}
			for o := 0; o < m.NumStabs; o++ {
				if od := m.Dist(s, 0, o, 0); od >= 0 && m.BoundaryDist(o) >= 0 &&
					od+m.BoundaryDist(o) < bd {
					t.Fatalf("stab %d: bdist %d beaten by detour via %d (%d)",
						s, bd, o, od+m.BoundaryDist(o))
				}
			}
		}
	}
}

func TestPathFlipSetsRealiseDistances(t *testing.T) {
	// At dt=0 the distance is a pure spatial chain; its canonical
	// flip set must weigh exactly that much.
	m := mustCompile(t, repSpec(9, 3))
	for i := 0; i < m.NumStabs; i++ {
		for j := 0; j < m.NumStabs; j++ {
			if i == j {
				continue
			}
			w := int64(len(m.PathFlips(i, j))) * Weight
			if want := m.Dist(i, 0, j, 0); w != want {
				t.Fatalf("PathFlips(%d,%d) weighs %d, dist %d", i, j, w, want)
			}
		}
	}
}

func TestEdgeListLayout(t *testing.T) {
	// Canonical order: per-layer space-like mechanisms first (data
	// order), then time-like mechanisms; counts follow directly.
	m := mustCompile(t, repSpec(5, 3))
	spatialPerLayer := 5 // data 0..4: two boundary + three shared
	wantSpace := spatialPerLayer * m.Layers
	wantTime := m.NumStabs * (m.Layers - 1)
	if len(m.Edges) != wantSpace+wantTime {
		t.Fatalf("edge count %d, want %d", len(m.Edges), wantSpace+wantTime)
	}
	for i, e := range m.Edges {
		if i < wantSpace && e.Data < 0 {
			t.Fatalf("edge %d: expected space-like, got time-like", i)
		}
		if i >= wantSpace && e.Data >= 0 {
			t.Fatalf("edge %d: expected time-like, got space-like", i)
		}
	}
}
