package matching

import (
	"slices"
	"testing"

	"radqec/internal/rng"
)

// randomGraph draws a graph on n vertices: sparse, medium or complete,
// with weights that tie often, spread widely or go negative, and now
// and then a parallel edge.
func randomGraph(src *rng.Source, n int) []Edge {
	density := []float64{0.15, 0.5, 1}[src.Intn(3)]
	span, shift := 4, 0
	switch src.Intn(3) {
	case 1:
		span = 100
	case 2:
		span, shift = 100, 50
	}
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !src.Bool(density) {
				continue
			}
			e := Edge{I: i, J: j, W: int64(src.Intn(span) - shift)}
			if src.Bool(0.5) {
				e.I, e.J = j, i
			}
			edges = append(edges, e)
			if src.Bool(0.02) {
				edges = append(edges, Edge{I: i, J: j, W: int64(src.Intn(span) - shift)})
			}
		}
	}
	return edges
}

// decoderGraph draws a graph shaped like the decoder's: k defects with
// pairwise distances (some pairs disconnected), each joined to its own
// boundary image, and the k images a zero-weight clique. With micro set
// the edges come in bench/micro.go's order, else in qec's matchDefects
// order.
func decoderGraph(src *rng.Source, k int, micro bool) []Edge {
	span := 1 + src.Intn(6)
	var edges []Edge
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if src.Bool(0.9) {
				edges = append(edges, Edge{I: i, J: j, W: int64(1+src.Intn(span)) << 16})
			}
			if micro {
				edges = append(edges, Edge{I: k + i, J: k + j, W: 0})
			}
		}
		edges = append(edges, Edge{I: i, J: k + i, W: int64(1+src.Intn(span)) << 16})
		for j := i + 1; j < k && !micro; j++ {
			edges = append(edges, Edge{I: k + i, J: k + j, W: 0})
		}
	}
	return edges
}

// negated returns edges with every weight negated: the graph the
// minimum-weight front end hands the maximum-weight core.
func negated(edges []Edge) []Edge {
	neg := make([]Edge, len(edges))
	for i, e := range edges {
		neg[i] = Edge{I: e.I, J: e.J, W: -e.W}
	}
	return neg
}

// checkDecoderGraph holds ws's minimum-weight perfect matching of a
// graph on n vertices to the reference's maximum-cardinality matching
// of its negation: the same mates, or an error where the reference
// leaves a vertex unmatched.
func checkDecoderGraph(t *testing.T, ws *Workspace, n int, edges []Edge) {
	t.Helper()
	want := referenceMaxWeightMatching(n, negated(edges), true)
	got, err := ws.MinWeightPerfectMatching(n, edges)
	if slices.Contains(want, -1) {
		if err == nil {
			t.Fatalf("n=%d, edges %v: workspace matched %v, reference leaves a vertex unmatched: %v",
				n, edges, got, want)
		}
		return
	}
	if err != nil {
		t.Fatalf("n=%d, edges %v: %v", n, edges, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d, edges %v:\nworkspace %v\nreference %v", n, edges, got, want)
	}
}

// TestWorkspaceMatchesReference holds one reused workspace to the
// frozen reference, mate for mate, over general graphs of both
// cardinality modes. Sizes go large, small, anything, so per-blossom
// lists left over from a bigger graph would show in a smaller one.
func TestWorkspaceMatchesReference(t *testing.T) {
	graphs := 20000
	if testing.Short() {
		graphs = 2000
	}
	src := rng.New(20240914)
	var ws Workspace
	for g := 0; g < graphs; g++ {
		var n int
		switch g % 3 {
		case 0:
			n = 20 + src.Intn(7)
		case 1:
			n = 1 + src.Intn(8)
		default:
			n = 1 + src.Intn(26)
		}
		edges := randomGraph(src, n)
		maxCard := src.Bool(0.5)
		want := referenceMaxWeightMatching(n, edges, maxCard)
		if got := ws.MaxWeightMatching(n, edges, maxCard); !slices.Equal(got, want) {
			t.Fatalf("graph %d (n=%d, maxCardinality=%v, edges %v):\nworkspace %v\nreference %v",
				g, n, maxCard, edges, got, want)
		}
	}
}

// TestWorkspaceMatchesReferenceOnDecoderGraphs is the same comparison
// on the graphs the decoder builds, through the minimum-weight front
// end it calls, out to the 36 defects memory-deep matches: random
// weights with disconnected pairs and the unit-weight repetition
// geometry with its ties, each in qec's and bench/micro.go's edge
// order. Defect counts cycle small, memory-deep's mix, large.
func TestWorkspaceMatchesReferenceOnDecoderGraphs(t *testing.T) {
	graphs := 12000
	if testing.Short() {
		graphs = 1200
	}
	src := rng.New(7)
	var ws Workspace
	for g := 0; g < graphs; g++ {
		var k int
		switch g % 3 {
		case 0:
			k = 1 + src.Intn(8)
		case 1:
			k = drawDefectCount(src)
		default:
			k = 16 + src.Intn(maxDecoderDefects-15)
		}
		micro := g%4 >= 2
		var edges []Edge
		if g%2 == 0 {
			edges = decoderGraph(src, k, micro)
		} else {
			edges = repDecoderGraph(src, k, micro)
		}
		checkDecoderGraph(t, &ws, 2*k, edges)
	}
}

// TestWarmWorkspaceZeroAlloc pins the point of the workspace: once it
// has seen a graph of the size, matching allocates nothing.
func TestWarmWorkspaceZeroAlloc(t *testing.T) {
	src := rng.New(11)
	graphs := make([][]Edge, 32)
	for i := range graphs {
		graphs[i] = decoderGraph(src, 8, false)
	}
	var ws Workspace
	match := func() {
		for _, edges := range graphs {
			if _, err := ws.MinWeightPerfectMatching(16, edges); err != nil {
				t.Fatal(err)
			}
		}
	}
	match()
	if n := testing.AllocsPerRun(10, match); n != 0 {
		t.Fatalf("warm workspace allocated %v times per %d matchings", n, len(graphs))
	}
}

// fuzzGraph decodes fuzz bytes into a graph: vertex count, cardinality
// mode, then (i, j, weight) triples with weights in [-64, 191].
func fuzzGraph(data []byte) (n int, maxCard bool, edges []Edge) {
	if len(data) < 2 {
		return 0, false, nil
	}
	n = int(data[0]) % 27
	maxCard = data[1]&1 != 0
	for d := data[2:]; len(d) >= 3 && n >= 2; d = d[3:] {
		i, j := int(d[0])%n, int(d[1])%n
		if i == j {
			continue
		}
		edges = append(edges, Edge{I: i, J: j, W: int64(d[2]) - 64})
	}
	return n, maxCard, edges
}

// fuzzBytes is fuzzGraph's inverse for graphs it can express.
func fuzzBytes(n int, maxCard bool, edges []Edge) []byte {
	data := []byte{byte(n), 0}
	if maxCard {
		data[1] = 1
	}
	for _, e := range edges {
		data = append(data, byte(e.I), byte(e.J), byte(e.W+64))
	}
	return data
}

// FuzzWorkspaceMatchesReference searches for a graph on which the
// workspace and the frozen reference disagree. Every input runs twice
// through one workspace with an unrelated graph in between, so state
// that survives a call is part of what is searched.
func FuzzWorkspaceMatchesReference(f *testing.F) {
	for _, cases := range [][]matchCase{knownTrickyCases, tBlossomExpansionCases} {
		for _, c := range cases {
			f.Add(fuzzBytes(c.n, false, c.edges))
			f.Add(fuzzBytes(c.n, true, c.edges))
		}
	}
	var ws Workspace
	between := decoderGraph(rng.New(3), 12, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, maxCard, edges := fuzzGraph(data)
		want := referenceMaxWeightMatching(n, edges, maxCard)
		for pass := 0; pass < 2; pass++ {
			if got := ws.MaxWeightMatching(n, edges, maxCard); !slices.Equal(got, want) {
				t.Fatalf("pass %d, n=%d, maxCardinality=%v, edges %v:\nworkspace %v\nreference %v",
					pass, n, maxCard, edges, got, want)
			}
			ws.MaxWeightMatching(24, between, true)
		}
	})
}
