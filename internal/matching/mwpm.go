package matching

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// MinWeightPerfectMatching computes a perfect matching of minimum total
// weight. It returns the matched pairs (each once, I < J by vertex
// index) or an error when no perfect matching exists.
//
// This is the decoder primitive: the space-time syndrome graph pairs up
// detection events (and boundary images) so that the total correction
// weight is minimal, exactly as qtcodes does through networkx.
func MinWeightPerfectMatching(nvertex int, edges []Edge) ([][2]int, error) {
	ws := workspaces.Get().(*Workspace)
	defer workspaces.Put(ws)
	mate, err := ws.MinWeightPerfectMatching(nvertex, edges)
	return matePairs(mate), err
}

// MinWeightPerfectMatching is the package-level function on caller-owned
// storage: it returns the mate of every vertex instead of a pair list.
// The slice is valid until the workspace's next call.
func (ws *Workspace) MinWeightPerfectMatching(nvertex int, edges []Edge) ([]int, error) {
	if nvertex%2 != 0 {
		return nil, fmt.Errorf("matching: perfect matching impossible on %d (odd) vertices", nvertex)
	}
	// A maximum-weight maximum-cardinality matching of the negated graph
	// is a minimum-weight perfect matching of the original, whenever a
	// perfect matching exists.
	mate := ws.run(nvertex, edges, -1, true)
	for v, m := range mate {
		if m == -1 {
			return nil, fmt.Errorf("matching: vertex %d unmatched; no perfect matching", v)
		}
	}
	return mate, nil
}

// matePairs lists each matched pair of a perfect mate array once, I < J
// by vertex index.
func matePairs(mate []int) [][2]int {
	if len(mate) == 0 {
		return nil
	}
	pairs := make([][2]int, 0, len(mate)/2)
	for v, m := range mate {
		if v < m {
			pairs = append(pairs, [2]int{v, m})
		}
	}
	return pairs
}

// MatchingWeight sums the weight of the given pairs using the edge list
// (taking the minimum weight among parallel edges). Pairs without a
// connecting edge contribute math.MaxInt64.
func MatchingWeight(edges []Edge, pairs [][2]int) int64 {
	w := make(map[[2]int]int64)
	for _, e := range edges {
		key := [2]int{e.I, e.J}
		if e.J < e.I {
			key = [2]int{e.J, e.I}
		}
		if old, ok := w[key]; !ok || e.W < old {
			w[key] = e.W
		}
	}
	var total int64
	for _, p := range pairs {
		key := p
		if key[1] < key[0] {
			key = [2]int{p[1], p[0]}
		}
		if wt, ok := w[key]; ok {
			total += wt
		} else {
			return math.MaxInt64
		}
	}
	return total
}

// GreedyPerfectMatching is the ablation baseline decoder: it sorts the
// edges by weight and matches greedily. It is fast but not optimal; the
// ablation-decoder experiment quantifies the accuracy it gives up versus
// blossom. Mates come back like the workspace's MinWeightPerfectMatching.
func (ws *Workspace) GreedyPerfectMatching(nvertex int, edges []Edge) ([]int, error) {
	if nvertex%2 != 0 {
		return nil, fmt.Errorf("matching: perfect matching impossible on %d (odd) vertices", nvertex)
	}
	ws.edgeBuf = append(ws.edgeBuf[:0], edges...)
	sorted := ws.edgeBuf
	// Stable: equal weights keep their input order, which decides ties.
	slices.SortStableFunc(sorted, func(a, b Edge) int { return cmp.Compare(a.W, b.W) })
	mate := ws.freshMate(nvertex)
	npairs := 0
	for _, e := range sorted {
		if mate[e.I] == -1 && mate[e.J] == -1 {
			mate[e.I], mate[e.J] = e.J, e.I
			npairs++
		}
	}
	if npairs != nvertex/2 {
		return nil, fmt.Errorf("matching: greedy failed to perfect-match")
	}
	return mate, nil
}

// bruteForceMinPerfect enumerates all perfect matchings and returns the
// minimum-weight one. Exponential; used only by tests as the reference.
func bruteForceMinPerfect(nvertex int, edges []Edge) ([][2]int, int64, bool) {
	if nvertex%2 != 0 || nvertex == 0 {
		return nil, 0, nvertex == 0
	}
	w := make(map[[2]int]int64)
	for _, e := range edges {
		key := [2]int{e.I, e.J}
		if e.J < e.I {
			key = [2]int{e.J, e.I}
		}
		if old, ok := w[key]; !ok || e.W < old {
			w[key] = e.W
		}
	}
	used := make([]bool, nvertex)
	var best [][2]int
	var bestW int64 = math.MaxInt64
	var cur [][2]int
	var rec func(curW int64)
	rec = func(curW int64) {
		first := -1
		for v := 0; v < nvertex; v++ {
			if !used[v] {
				first = v
				break
			}
		}
		if first == -1 {
			if curW < bestW {
				bestW = curW
				best = append([][2]int(nil), cur...)
			}
			return
		}
		used[first] = true
		for u := first + 1; u < nvertex; u++ {
			if used[u] {
				continue
			}
			wt, ok := w[[2]int{first, u}]
			if !ok {
				continue
			}
			used[u] = true
			cur = append(cur, [2]int{first, u})
			rec(curW + wt)
			cur = cur[:len(cur)-1]
			used[u] = false
		}
		used[first] = false
	}
	rec(0)
	return best, bestW, bestW != math.MaxInt64
}
