package qec

// Union-find decoding (Delfosse & Nickerson, "Almost-linear time
// decoding algorithm for topological codes", cited by the paper as the
// main almost-linear alternative to MWPM). Clusters grow half-edge by
// half-edge around defects until every cluster is neutral (even defect
// parity or boundary contact); a peeling pass over each cluster's
// spanning forest then extracts the correction.
//
// The decoder operates on the compiled detector-error model's
// space-time graph — one node per (Z stabilizer, detection layer) plus
// the global boundary node absorbing chains that exit the lattice —
// shared with the MWPM decoder. Growth is uniform per edge (the
// classic unweighted variant); the DEM supplies the topology and flip
// identities.

import "radqec/internal/dem"

// unionFind is a standard disjoint-set forest with cluster metadata.
type unionFind struct {
	parent []int
	rank   []int
	// parity counts defects in the cluster mod 2.
	parity []uint8
	// boundary marks clusters touching the boundary node.
	boundary []bool
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{
		parent:   make([]int, n),
		rank:     make([]int, n),
		parity:   make([]uint8, n),
		boundary: make([]bool, n),
	}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) int {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.parity[ra] ^= u.parity[rb]
	u.boundary[ra] = u.boundary[ra] || u.boundary[rb]
	return ra
}

// neutral reports whether the cluster rooted at r needs no more growth.
func (u *unionFind) neutral(r int) bool {
	return u.parity[r] == 0 || u.boundary[r]
}

// ufDecode runs cluster growth + peeling over the DEM's space-time
// graph and returns the data-qubit flip mask.
func ufDecode(m *dem.Model, defects []defect, numData int) []bool {
	flips := make([]bool, numData)
	if len(defects) == 0 {
		return flips
	}
	numNodes := len(m.Adj)
	uf := newUnionFind(numNodes)
	uf.boundary[m.Boundary] = true
	isDefect := make([]bool, numNodes)
	for _, df := range defects {
		v := m.Node(df.stab, df.round)
		isDefect[v] = true
		uf.parity[uf.find(v)] ^= 1
	}
	// growth[e] in {0, 1, 2}: half-edge growth state.
	growth := make([]uint8, len(m.Edges))
	grown := make([]bool, len(m.Edges))

	// activeRoots tracks clusters that still need growth.
	active := func() []int {
		seen := map[int]bool{}
		var out []int
		for _, df := range defects {
			r := uf.find(m.Node(df.stab, df.round))
			if !seen[r] && !uf.neutral(r) {
				seen[r] = true
				out = append(out, r)
			}
		}
		return out
	}

	// Vertices currently owned by each cluster are found by scanning;
	// decoder graphs here are small (hundreds of nodes), so the simple
	// quadratic variant is plenty and keeps the code auditable.
	for iter := 0; iter < 4*len(m.Edges)+4; iter++ {
		roots := active()
		if len(roots) == 0 {
			break
		}
		inActive := map[int]bool{}
		for _, r := range roots {
			inActive[r] = true
		}
		// Grow every boundary half-edge of every active cluster.
		for v := range m.Adj {
			if !inActive[uf.find(v)] {
				continue
			}
			for _, ei := range m.Adj[v] {
				if growth[ei] < 2 {
					growth[ei]++
					if growth[ei] == 2 && !grown[ei] {
						grown[ei] = true
						uf.union(m.Edges[ei].U, m.Edges[ei].V)
					}
				}
			}
		}
	}

	// Peeling: build a spanning forest of each cluster over grown edges,
	// then peel leaves, pushing defect parity toward the root. Roots are
	// boundary-contact vertices when available.
	n := numNodes
	treeParent := make([]int, n)
	treeEdge := make([]int, n)
	visited := make([]bool, n)
	for i := range treeParent {
		treeParent[i] = -1
		treeEdge[i] = -1
	}
	adjGrown := make([][]int, n)
	for ei, ok := range grown {
		if ok {
			adjGrown[m.Edges[ei].U] = append(adjGrown[m.Edges[ei].U], ei)
			adjGrown[m.Edges[ei].V] = append(adjGrown[m.Edges[ei].V], ei)
		}
	}
	// BFS from the boundary first so boundary-touching clusters root
	// there (the boundary absorbs any defect parity).
	order := make([]int, 0, n)
	bfs := func(start int) {
		queue := []int{start}
		visited[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, ei := range adjGrown[v] {
				w := m.Edges[ei].U + m.Edges[ei].V - v
				if !visited[w] {
					visited[w] = true
					treeParent[w] = v
					treeEdge[w] = ei
					queue = append(queue, w)
				}
			}
		}
	}
	bfs(m.Boundary)
	for v := 0; v < n; v++ {
		if !visited[v] {
			bfs(v)
		}
	}
	// Peel in reverse BFS order: every vertex is a leaf of the remaining
	// forest when processed.
	defectState := make([]bool, n)
	copy(defectState, isDefect)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if treeParent[v] == -1 || !defectState[v] {
			continue
		}
		// Push the defect up through the tree edge.
		ei := treeEdge[v]
		if d := m.Edges[ei].Data; d >= 0 {
			flips[d] = !flips[d]
		}
		defectState[v] = false
		defectState[treeParent[v]] = !defectState[treeParent[v]]
	}
	return flips
}
