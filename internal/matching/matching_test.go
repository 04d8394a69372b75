package matching

import (
	"slices"
	"testing"
	"testing/quick"

	"radqec/internal/rng"
)

func matchWeight(t *testing.T, nvertex int, edges []Edge, pairs [][2]int) int64 {
	t.Helper()
	w := MatchingWeight(edges, pairs)
	return w
}

func TestEmptyGraph(t *testing.T) {
	mate := MaxWeightMatching(0, nil, false)
	if len(mate) != 0 {
		t.Fatal("empty graph returned mates")
	}
	pairs, err := MinWeightPerfectMatching(0, nil)
	if err != nil || pairs != nil {
		t.Fatalf("empty MWPM: %v %v", pairs, err)
	}
}

func TestSingleEdge(t *testing.T) {
	edges := []Edge{{0, 1, 5}}
	mate := MaxWeightMatching(2, edges, false)
	if mate[0] != 1 || mate[1] != 0 {
		t.Fatalf("mate = %v", mate)
	}
}

func TestNegativeEdgeSkippedUnlessCardinality(t *testing.T) {
	edges := []Edge{{0, 1, -2}}
	mate := MaxWeightMatching(2, edges, false)
	if mate[0] != -1 || mate[1] != -1 {
		t.Fatalf("negative edge matched without maxCardinality: %v", mate)
	}
	mate = MaxWeightMatching(2, edges, true)
	if mate[0] != 1 {
		t.Fatalf("maxCardinality ignored negative edge: %v", mate)
	}
}

func TestPathChoosesHeavier(t *testing.T) {
	// Path 0-1-2: must pick the heavier of the two edges.
	edges := []Edge{{0, 1, 3}, {1, 2, 7}}
	mate := MaxWeightMatching(3, edges, false)
	if mate[1] != 2 || mate[2] != 1 || mate[0] != -1 {
		t.Fatalf("mate = %v", mate)
	}
}

func TestCardinalityBeatsWeight(t *testing.T) {
	// Path 0-1-2-3 with a heavy middle edge. Max weight alone picks the
	// middle; max cardinality must pick the two outer edges.
	edges := []Edge{{0, 1, 2}, {1, 2, 10}, {2, 3, 2}}
	mate := MaxWeightMatching(4, edges, false)
	if mate[1] != 2 {
		t.Fatalf("pure weight: mate = %v", mate)
	}
	mate = MaxWeightMatching(4, edges, true)
	if mate[0] != 1 || mate[2] != 3 {
		t.Fatalf("cardinality: mate = %v", mate)
	}
}

func TestTriangleBlossom(t *testing.T) {
	// Odd cycle forces blossom formation.
	edges := []Edge{{0, 1, 6}, {1, 2, 6}, {0, 2, 6}, {2, 3, 5}}
	mate := MaxWeightMatching(4, edges, false)
	if mate[2] != 3 || mate[0] != 1 {
		t.Fatalf("mate = %v", mate)
	}
}

// matchCase is a graph with the mate array the reference
// implementation's regression suite expects (vertex 0 is unused).
type matchCase struct {
	n     int
	edges []Edge
	want  []int
}

// knownTrickyCases come from the reference implementation's regression
// suite (s-blossom, t-blossom, nested blossoms, relabelling and
// expansion).
var knownTrickyCases = []matchCase{
	// create S-blossom and use it for augmentation
	{6, []Edge{{1, 2, 8}, {1, 3, 9}, {2, 3, 10}, {3, 4, 7}}, []int{-1, 2, 1, 4, 3, -1}},
	{7, []Edge{{1, 2, 8}, {1, 3, 9}, {2, 3, 10}, {3, 4, 7}, {1, 6, 5}, {4, 5, 6}}, []int{-1, 6, 3, 2, 5, 4, 1}},
	// create S-blossom, relabel as T-blossom, use for augmentation
	{7, []Edge{{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 4}, {1, 6, 3}}, []int{-1, 6, 3, 2, 5, 4, 1}},
	{7, []Edge{{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 3}, {1, 6, 4}}, []int{-1, 6, 3, 2, 5, 4, 1}},
	{7, []Edge{{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 3}, {3, 6, 4}}, []int{-1, 2, 1, 6, 5, 4, 3}},
	// create nested S-blossom, use for augmentation
	{7, []Edge{{1, 2, 9}, {1, 3, 9}, {2, 3, 10}, {2, 4, 8}, {3, 5, 8}, {4, 5, 10}, {5, 6, 6}}, []int{-1, 3, 4, 1, 2, 6, 5}},
	// create S-blossom, relabel as S, include in nested S-blossom
	{9, []Edge{{1, 2, 10}, {1, 7, 10}, {2, 3, 12}, {3, 4, 20}, {3, 5, 20}, {4, 5, 25}, {5, 6, 10}, {6, 7, 10}, {7, 8, 8}}, []int{-1, 2, 1, 4, 3, 6, 5, 8, 7}},
	// create nested S-blossom, augment, expand recursively
	{9, []Edge{{1, 2, 8}, {1, 3, 8}, {2, 3, 10}, {2, 4, 12}, {3, 5, 12}, {4, 5, 14}, {4, 6, 12}, {5, 7, 12}, {6, 7, 14}, {7, 8, 12}}, []int{-1, 2, 1, 5, 6, 3, 4, 8, 7}},
	// create S-blossom, relabel as T, expand
	{9, []Edge{{1, 2, 23}, {1, 5, 22}, {1, 6, 15}, {2, 3, 25}, {3, 4, 22}, {4, 5, 25}, {4, 8, 14}, {5, 7, 13}}, []int{-1, 6, 3, 2, 8, 7, 1, 5, 4}},
	// create nested S-blossom, relabel as T, expand
	{9, []Edge{{1, 2, 19}, {1, 3, 20}, {1, 8, 8}, {2, 3, 25}, {2, 4, 18}, {3, 5, 18}, {4, 5, 13}, {4, 7, 7}, {5, 6, 7}}, []int{-1, 8, 3, 2, 7, 6, 5, 4, 1}},
}

// tBlossomExpansionCases: create blossom, relabel as T in more than one
// way, expand, augment.
var tBlossomExpansionCases = []matchCase{
	{11, []Edge{{1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50}, {1, 6, 30}, {3, 9, 35}, {4, 8, 35}, {5, 7, 26}, {9, 10, 5}},
		[]int{-1, 6, 3, 2, 8, 7, 1, 5, 4, 10, 9}},
	{11, []Edge{{1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50}, {1, 6, 30}, {3, 9, 35}, {4, 8, 26}, {5, 7, 40}, {9, 10, 5}},
		[]int{-1, 6, 3, 2, 8, 7, 1, 5, 4, 10, 9}},
	// create blossom, relabel as T, expand such that a new least-slack
	// S-to-free edge is produced, augment
	{11, []Edge{{1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50}, {1, 6, 30}, {3, 9, 35}, {4, 8, 28}, {5, 7, 26}, {9, 10, 5}},
		[]int{-1, 6, 3, 2, 8, 7, 1, 5, 4, 10, 9}},
	// create nested blossom, relabel as T in more than one way, expand
	// outer blossom such that inner blossom ends up on an augmenting path
	{13, []Edge{{1, 2, 45}, {1, 7, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 95}, {4, 6, 94}, {5, 6, 94}, {6, 7, 50}, {1, 8, 30}, {3, 11, 35}, {5, 9, 36}, {7, 10, 26}, {11, 12, 5}},
		[]int{-1, 8, 3, 2, 6, 9, 4, 10, 1, 5, 7, 12, 11}},
}

func checkMatchCases(t *testing.T, cases []matchCase) {
	t.Helper()
	for ci, c := range cases {
		mate := MaxWeightMatching(c.n, c.edges, false)
		for v := 1; v < c.n; v++ {
			if mate[v] != c.want[v] {
				t.Fatalf("case %d: mate = %v, want %v", ci, mate, c.want)
			}
		}
	}
}

func TestKnownTrickyCases(t *testing.T) { checkMatchCases(t, knownTrickyCases) }

func TestTBlossomExpansionCases(t *testing.T) { checkMatchCases(t, tBlossomExpansionCases) }

func TestMatchingSymmetricAndDisjoint(t *testing.T) {
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		n := 4 + 2*src.Intn(4)
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if src.Bool(0.7) {
					edges = append(edges, Edge{i, j, int64(src.Intn(40))})
				}
			}
		}
		mate := MaxWeightMatching(n, edges, false)
		for v := 0; v < n; v++ {
			if mate[v] >= 0 && mate[mate[v]] != v {
				return false
			}
			if mate[v] == v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinWeightPerfectMatchingSimple(t *testing.T) {
	// Square with diagonals: cheapest perfect matching picks the two
	// cheap parallel sides.
	edges := []Edge{
		{0, 1, 1}, {2, 3, 1},
		{0, 2, 5}, {1, 3, 5},
		{0, 3, 9}, {1, 2, 9},
	}
	pairs, err := MinWeightPerfectMatching(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	if w := matchWeight(t, 4, edges, pairs); w != 2 {
		t.Fatalf("weight = %d, want 2 (pairs %v)", w, pairs)
	}
}

func TestMinWeightPerfectMatchingOddVertices(t *testing.T) {
	if _, err := MinWeightPerfectMatching(3, []Edge{{0, 1, 1}}); err == nil {
		t.Fatal("odd vertex count accepted")
	}
}

func TestMinWeightPerfectMatchingNoPerfect(t *testing.T) {
	// Star K1,3 has no perfect matching.
	edges := []Edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}}
	if _, err := MinWeightPerfectMatching(4, edges); err == nil {
		t.Fatal("imperfect graph accepted")
	}
}

func TestMinWeightAgainstBruteForce(t *testing.T) {
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		n := 4 + 2*src.Intn(3) // 4, 6, 8
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, Edge{i, j, int64(src.Intn(50))})
			}
		}
		pairs, err := MinWeightPerfectMatching(n, edges)
		if err != nil {
			return false
		}
		_, wantW, ok := bruteForceMinPerfect(n, edges)
		if !ok {
			return false
		}
		return MatchingWeight(edges, pairs) == wantW
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinWeightSparseAgainstBruteForce(t *testing.T) {
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		n := 6
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if src.Bool(0.6) {
					edges = append(edges, Edge{i, j, int64(src.Intn(30))})
				}
			}
		}
		_, wantW, feasible := bruteForceMinPerfect(n, edges)
		pairs, err := MinWeightPerfectMatching(n, edges)
		if !feasible {
			return err != nil
		}
		if err != nil {
			return false
		}
		return MatchingWeight(edges, pairs) == wantW
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLargerCompleteGraphs(t *testing.T) {
	// Blossom must stay optimal on bigger complete graphs; compare to
	// brute force at n=10 (945 matchings).
	src := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 10
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, Edge{i, j, int64(src.Intn(100))})
			}
		}
		pairs, err := MinWeightPerfectMatching(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		_, wantW, _ := bruteForceMinPerfect(n, edges)
		if got := MatchingWeight(edges, pairs); got != wantW {
			t.Fatalf("trial %d: weight %d, want %d", trial, got, wantW)
		}
	}
}

func TestGreedyValidButMaybeSuboptimal(t *testing.T) {
	src := rng.New(7)
	worse := 0
	for trial := 0; trial < 50; trial++ {
		n := 8
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, Edge{i, j, int64(src.Intn(60))})
			}
		}
		var ws Workspace
		mate, err := ws.GreedyPerfectMatching(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		gp := matePairs(mate)
		if len(gp) != n/2 {
			t.Fatalf("greedy pairs = %v", gp)
		}
		op, err := MinWeightPerfectMatching(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		gw, ow := MatchingWeight(edges, gp), MatchingWeight(edges, op)
		if gw < ow {
			t.Fatalf("greedy beat blossom: %d < %d", gw, ow)
		}
		if gw > ow {
			worse++
		}
	}
	if worse == 0 {
		t.Log("greedy matched blossom on every trial (unusual but legal)")
	}
}

// TestGreedyOrderMatchesInsertionSort holds the greedy matcher's
// stable sort to the insertion sort it replaced: on random graphs, with
// ties and parallel edges, the mates (or the failure) come out the same
// as greedy matching over the insertion-sorted list.
func TestGreedyOrderMatchesInsertionSort(t *testing.T) {
	src := rng.New(17)
	var ws Workspace
	for g := 0; g < 500; g++ {
		n := 2 * (1 + src.Intn(12))
		edges := randomGraph(src, n)
		sorted := slices.Clone(edges)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j].W < sorted[j-1].W; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		want := make([]int, n)
		for v := range want {
			want[v] = -1
		}
		pairs := 0
		for _, e := range sorted {
			if want[e.I] == -1 && want[e.J] == -1 {
				want[e.I], want[e.J] = e.J, e.I
				pairs++
			}
		}
		got, err := ws.GreedyPerfectMatching(n, edges)
		if (err == nil) != (pairs == n/2) {
			t.Fatalf("graph %d: error %v, insertion-sorted greedy matched %d of %d pairs", g, err, pairs, n/2)
		}
		if err == nil && !slices.Equal(got, want) {
			t.Fatalf("graph %d (edges %v):\nstable sort    %v\ninsertion sort %v", g, edges, got, want)
		}
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxWeightMatching(2, []Edge{{1, 1, 3}}, false)
}

func BenchmarkBlossomComplete16(b *testing.B) {
	src := rng.New(3)
	n := 16
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j, int64(src.Intn(100))})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinWeightPerfectMatching(n, edges); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlossomComplete40(b *testing.B) {
	src := rng.New(4)
	n := 40
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j, int64(src.Intn(100))})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinWeightPerfectMatching(n, edges); err != nil {
			b.Fatal(err)
		}
	}
}
