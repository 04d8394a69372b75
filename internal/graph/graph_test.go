package graph

import (
	"testing"
	"testing/quick"

	"radqec/internal/rng"
)

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func grid(w, h int) *Graph {
	g := New(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := y*w + x
			if x+1 < w {
				g.AddEdge(v, v+1)
			}
			if y+1 < h {
				g.AddEdge(v, v+w)
			}
		}
	}
	return g
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeIgnoresSelfLoopsAndDuplicates(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 2)
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want 1", got)
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self loop recorded")
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEdge(0, 5)
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := grid(3, 3)
	if d := g.Degree(4); d != 4 { // center of 3x3
		t.Fatalf("center degree = %d, want 4", d)
	}
	if d := g.Degree(0); d != 2 {
		t.Fatalf("corner degree = %d, want 2", d)
	}
	n := g.Neighbors(0)
	if len(n) != 2 {
		t.Fatalf("corner has %d neighbors", len(n))
	}
}

func TestBFSPathGraph(t *testing.T) {
	g := path(5)
	d := g.BFSFrom(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("dist(0,%d) = %d, want %d", i, d[i], want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	d := g.BFSFrom(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("disconnected distances = %v, want -1", d[2:])
	}
}

func TestAllPairsSymmetric(t *testing.T) {
	g := grid(4, 3)
	d := g.AllPairsShortestPaths()
	for u := 0; u < g.N(); u++ {
		if d[u][u] != 0 {
			t.Fatalf("d[%d][%d] = %d", u, u, d[u][u])
		}
		for v := 0; v < g.N(); v++ {
			if d[u][v] != d[v][u] {
				t.Fatalf("asymmetric distance %d,%d", u, v)
			}
		}
	}
}

func TestShortestPathEndpoints(t *testing.T) {
	g := grid(5, 5)
	p := g.ShortestPath(0, 24)
	if p[0] != 0 || p[len(p)-1] != 24 {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	if len(p) != g.BFSFrom(0)[24]+1 {
		t.Fatalf("path length %d inconsistent with distance", len(p))
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Fatalf("path step %d-%d not an edge", p[i], p[i+1])
		}
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := path(3)
	p := g.ShortestPath(1, 1)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("self path = %v", p)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if p := g.ShortestPath(0, 2); p != nil {
		t.Fatalf("expected nil path, got %v", p)
	}
}

func TestConnected(t *testing.T) {
	if !path(6).Connected() {
		t.Fatal("path graph should be connected")
	}
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestInducedConnected(t *testing.T) {
	g := grid(3, 3)
	if !g.InducedConnected([]int{0, 1, 2}) {
		t.Fatal("top row should be connected")
	}
	if g.InducedConnected([]int{0, 2}) {
		t.Fatal("two opposite corners of a row are not adjacent")
	}
	if g.InducedConnected(nil) {
		t.Fatal("empty set should not be connected")
	}
}

func TestSampleConnectedSubgraphs(t *testing.T) {
	g := grid(5, 6)
	src := rng.New(1)
	subs := g.SampleConnectedSubgraphs(7, 25, src)
	if len(subs) != 25 {
		t.Fatalf("got %d samples, want 25", len(subs))
	}
	for _, s := range subs {
		if len(s) != 7 {
			t.Fatalf("sample size %d, want 7", len(s))
		}
		if !g.InducedConnected(s) {
			t.Fatalf("sample %v not connected", s)
		}
	}
}

func TestSampleConnectedSubgraphsImpossible(t *testing.T) {
	g := New(4) // no edges: size-2 connected subgraphs do not exist
	src := rng.New(2)
	if subs := g.SampleConnectedSubgraphs(2, 3, src); subs != nil {
		t.Fatalf("expected nil, got %v", subs)
	}
}

func TestSubgraphConnectivityProperty(t *testing.T) {
	g := grid(4, 4)
	prop := func(seed uint64, rawK uint8) bool {
		k := int(rawK%6) + 1
		src := rng.New(seed)
		subs := g.SampleConnectedSubgraphs(k, 3, src)
		for _, s := range subs {
			if len(s) != k || !g.InducedConnected(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
