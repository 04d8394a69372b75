package graph

import (
	"sort"

	"radqec/internal/rng"
)

// SampleConnectedSubgraphs returns up to count connected induced
// subgraphs with k vertices, sampled by random BFS growth. Results may
// repeat across draws but each returned set is connected and of size k.
// It returns nil when no subgraph of size k exists from any root.
func (g *Graph) SampleConnectedSubgraphs(k, count int, src *rng.Source) [][]int {
	if k <= 0 || k > g.n || count <= 0 {
		return nil
	}
	var out [][]int
	const maxAttemptsPerSample = 64
	for len(out) < count {
		found := false
		for attempt := 0; attempt < maxAttemptsPerSample; attempt++ {
			if sg := g.randomGrow(k, src); sg != nil {
				out = append(out, sg)
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	return out
}

// randomGrow grows one connected set of size k from a random root, or
// returns nil when the growth gets stuck (root's component smaller than k).
func (g *Graph) randomGrow(k int, src *rng.Source) []int {
	root := src.Intn(g.n)
	chosen := map[int]bool{root: true}
	var frontier []int
	for _, v := range g.adj[root] {
		frontier = append(frontier, v)
	}
	for len(chosen) < k {
		// Drop frontier entries that were chosen through another path.
		live := frontier[:0]
		for _, v := range frontier {
			if !chosen[v] {
				live = append(live, v)
			}
		}
		frontier = live
		if len(frontier) == 0 {
			return nil
		}
		i := src.Intn(len(frontier))
		v := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		chosen[v] = true
		for _, w := range g.adj[v] {
			if !chosen[w] {
				frontier = append(frontier, w)
			}
		}
	}
	out := make([]int, 0, k)
	for v := range chosen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
