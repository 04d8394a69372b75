// Package graph implements the undirected graphs that describe quantum
// hardware connectivity (architecture graphs) and the algorithms the
// radiation study needs on them: shortest paths for SWAP routing and for
// the spatial decay of a particle strike, connectivity checks, and the
// connected-subgraph sampling used to build correlated "hypernode"
// fault groups.
package graph

import "fmt"

// Graph is a simple undirected graph on vertices 0..N-1 with unit edge
// weights (the paper fixes every architecture edge weight to 1).
type Graph struct {
	n   int
	adj [][]int
	has []map[int]bool
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{
		n:   n,
		adj: make([][]int, n),
		has: make([]map[int]bool, n),
	}
	for i := range g.has {
		g.has[i] = make(map[int]bool)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Self loops and duplicate
// edges are ignored. It panics on out-of-range vertices.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v || g.has[u][v] {
		return
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.has[u][v] = true
	g.has[v][u] = true
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.has[u][v]
}

// Neighbors returns the neighbor list of v. The returned slice must not
// be modified.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	return g.adj[v]
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// BFSFrom returns the unit-weight distance from src to every vertex.
// Unreachable vertices get distance -1.
func (g *Graph) BFSFrom(src int) []int {
	g.check(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// AllPairsShortestPaths returns the full distance matrix (unit weights).
// Disconnected pairs hold -1.
func (g *Graph) AllPairsShortestPaths() [][]int {
	d := make([][]int, g.n)
	for v := 0; v < g.n; v++ {
		d[v] = g.BFSFrom(v)
	}
	return d
}

// ShortestPath returns one shortest path from src to dst inclusive, or
// nil when disconnected.
func (g *Graph) ShortestPath(src, dst int) []int {
	g.check(src)
	g.check(dst)
	if src == dst {
		return []int{src}
	}
	prev := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if prev[v] == -1 {
				prev[v] = u
				if v == dst {
					queue = nil
					break
				}
				queue = append(queue, v)
			}
		}
	}
	if prev[dst] == -1 {
		return nil
	}
	var path []int
	for v := dst; v != src; v = prev[v] {
		path = append(path, v)
	}
	path = append(path, src)
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Connected reports whether the graph is connected. The empty graph and
// single-vertex graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFSFrom(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// InducedConnected reports whether the sub-graph induced by vs is
// connected and non-empty.
func (g *Graph) InducedConnected(vs []int) bool {
	if len(vs) == 0 {
		return false
	}
	in := make(map[int]bool, len(vs))
	for _, v := range vs {
		g.check(v)
		in[v] = true
	}
	seen := map[int]bool{vs[0]: true}
	queue := []int{vs[0]}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if in[w] && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(seen) == len(in)
}
