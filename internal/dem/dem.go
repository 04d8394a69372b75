// Package dem compiles detector-error models: the space-time decoding
// geometry a (code, rounds) pair induces. A detector is one stabilizer
// measurement comparison — stabilizer s at detection layer t — and an
// error mechanism is an edge between the detectors it flips: a
// data-qubit error between consecutive layers (space-like edge,
// flipping the two stabilizers sharing the qubit, or one stabilizer and
// the open boundary), or a measurement error (time-like edge, flipping
// the same stabilizer in consecutive layers).
//
// Every mechanism weighs the same, Weight: the model is the unit-weight
// geometry the paper's qtcodes pipeline decodes on, so every distance is
// a hop count times Weight and every shortest chain is found by
// breadth-first search.
//
// The model is compiled once per (geometry, rounds) and shared by every
// decoder view:
//
//   - MWPM reads the shortest-path distances between detectors (and to
//     the boundary) plus the flattened flip sets realising them.
//   - Union-find grows clusters over the explicit space-time edge list
//     (Edges/Adj), which enumerates mechanisms in a fixed canonical
//     order so peeling is deterministic.
//
// With the boundary excluded, the space-time graph is the Cartesian
// product of the spatial stabilizer graph and the path of layers, so
// dist((s1,t1),(s2,t2)) = dist(s1,s2) + Weight·|t1-t2|: the model
// stores only the numStabs² spatial distances, and deep-memory models
// (rounds ≫ 2) stay small.
package dem

import "fmt"

// Weight is the weight of every mechanism. Its value is the fixed-point
// log-likelihood weight of a mechanism at probability 0.01,
// round(2^16·ln 99), which the decoders have always matched on: the
// blossom halves slacks in integer arithmetic, so rescaling the unit
// could move its tie-breaks.
const Weight int64 = 301146

// Spec is the input of Compile.
type Spec struct {
	// Stabs[s] lists the data-qubit indices stabilizer s checks.
	Stabs [][]int
	// NumData is the number of data qubits.
	NumData int
	// Rounds is the number of stabilization rounds (>= 2). Detection
	// events live on Rounds+1 layers: round 0 vs the expected all-zero
	// syndrome, consecutive-round differences, and the last round vs
	// the syndrome recomputed from the data readout.
	Rounds int
}

// Edge is one error mechanism of the space-time graph.
type Edge struct {
	// U and V are space-time node ids (Node(s, t)); boundary edges use
	// the Boundary node as V's side.
	U, V int
	// Data is the data qubit a space-like mechanism flips, or -1 for a
	// time-like (measurement) mechanism.
	Data int
}

// Model is a compiled detector-error model.
type Model struct {
	// NumStabs, NumData and Layers fix the detector coordinate system:
	// detectors are (stabilizer, layer) pairs with Layers = Rounds+1.
	NumStabs, NumData, Layers int
	// Boundary is the space-time node id of the open boundary.
	Boundary int
	// Edges enumerates every mechanism in canonical order: for each
	// layer, the space-like mechanisms in data-qubit order, then for
	// each layer transition, the time-like mechanisms in stabilizer
	// order. Adj[v] lists the edge indices incident to node v.
	Edges []Edge
	Adj   [][]int32

	// dist[s1*NumStabs+s2] is the spatial shortest-path weight between
	// stabilizers s1 and s2 (-1 when disconnected). Boundary never
	// shortcuts these paths: a chain through the boundary is expressed
	// as two boundary matches by the matcher.
	dist []int64
	// bdist[s] is the distance from stabilizer s (any layer) to the
	// boundary; -1 when unreachable.
	bdist []int64
	// pathFlips[s1][s2] is the flattened flip set — the data qubits of
	// a canonical shortest spatial chain between s1 and s2. Time edges
	// flip no data, so a matched pair's correction is the spatial
	// projection of its space-time path, which is this chain.
	pathFlips [][][]int
	// bpathFlips[s] is the flip set of a canonical shortest chain from
	// s to the boundary.
	bpathFlips [][]int
}

// Node returns the space-time node id of stabilizer s at layer t.
func (m *Model) Node(s, t int) int { return t*m.NumStabs + s }

// Dist returns the shortest-path weight between detectors (s1,t1) and
// (s2,t2), or -1 when they are spatially disconnected.
func (m *Model) Dist(s1, t1, s2, t2 int) int64 {
	d := m.dist[s1*m.NumStabs+s2]
	if d < 0 {
		return -1
	}
	dt := t1 - t2
	if dt < 0 {
		dt = -dt
	}
	return d + Weight*int64(dt)
}

// BoundaryDist returns the distance from stabilizer s to the open
// boundary (-1 when unreachable).
func (m *Model) BoundaryDist(s int) int64 { return m.bdist[s] }

// PathFlips returns the data-qubit flip set of the canonical shortest
// chain between stabilizers s1 and s2 (nil when s1 == s2 or
// disconnected). The returned slice is shared; callers must not mutate
// it.
func (m *Model) PathFlips(s1, s2 int) []int { return m.pathFlips[s1][s2] }

// BoundaryFlips returns the flip set of the canonical shortest chain
// from stabilizer s to the boundary (shared; do not mutate).
func (m *Model) BoundaryFlips(s int) []int { return m.bpathFlips[s] }

// Compile builds the model: the canonical space-time edge list, the
// spatial distances and the spatial flip sets.
func Compile(spec Spec) (*Model, error) {
	n := len(spec.Stabs)
	if spec.NumData < 0 {
		return nil, fmt.Errorf("dem: negative data-qubit count %d", spec.NumData)
	}
	if spec.Rounds < 2 {
		return nil, fmt.Errorf("dem: at least 2 stabilization rounds required, got %d", spec.Rounds)
	}
	layers := spec.Rounds + 1
	m := &Model{
		NumStabs: n,
		NumData:  spec.NumData,
		Layers:   layers,
		Boundary: n * layers,
	}

	// owner[d] lists the stabilizers covering data qubit d; exactly-one
	// coverage links that stabilizer to the open boundary, exactly-two
	// coverage links the pair. Qubits covered by more stabilizers have
	// no graphlike mechanism and are skipped (none exist in the
	// repetition or XXZZ families).
	owner := make([][]int, spec.NumData)
	for s, datas := range spec.Stabs {
		for _, d := range datas {
			if d < 0 || d >= spec.NumData {
				return nil, fmt.Errorf("dem: stabilizer %d references data qubit %d of %d", s, d, spec.NumData)
			}
			owner[d] = append(owner[d], s)
		}
	}

	// Canonical space-time edge list: per layer the space-like
	// mechanisms in data order, then per transition the time-like
	// mechanisms in stabilizer order (the union-find peeling order).
	for t := 0; t < layers; t++ {
		for d, ss := range owner {
			switch len(ss) {
			case 1:
				m.Edges = append(m.Edges, Edge{U: m.Node(ss[0], t), V: m.Boundary, Data: d})
			case 2:
				m.Edges = append(m.Edges, Edge{U: m.Node(ss[0], t), V: m.Node(ss[1], t), Data: d})
			}
		}
	}
	for t := 0; t+1 < layers; t++ {
		for s := 0; s < n; s++ {
			m.Edges = append(m.Edges, Edge{U: m.Node(s, t), V: m.Node(s, t+1), Data: -1})
		}
	}
	m.Adj = make([][]int32, n*layers+1)
	for i, e := range m.Edges {
		m.Adj[e.U] = append(m.Adj[e.U], int32(i))
		m.Adj[e.V] = append(m.Adj[e.V], int32(i))
	}

	m.compileSpatialPaths(owner)
	return m, nil
}

// spatialEdge is one spatial mechanism viewed from a node of the
// spatial-only graph (stabilizers 0..n-1, boundary n).
type spatialEdge struct {
	to, via int
}

// spatialAdj builds the spatial adjacency in data-qubit order — the
// canonical visiting order that makes path tie-breaking deterministic.
func (m *Model) spatialAdj(owner [][]int) [][]spatialEdge {
	n := m.NumStabs
	adj := make([][]spatialEdge, n+1)
	for d, ss := range owner {
		switch len(ss) {
		case 1:
			adj[ss[0]] = append(adj[ss[0]], spatialEdge{n, d})
			adj[n] = append(adj[n], spatialEdge{ss[0], d})
		case 2:
			adj[ss[0]] = append(adj[ss[0]], spatialEdge{ss[1], d})
			adj[ss[1]] = append(adj[ss[1]], spatialEdge{ss[0], d})
		}
	}
	return adj
}

// bfsSpatial runs a FIFO breadth-first search from src over the spatial
// graph, skipping the node listed in skip (-1 for none), and returns hop
// counts (-1 unreachable) and predecessor data qubits. A node's
// predecessor is set when it is first discovered, so the shortest chain
// read back from it is the canonical one.
func bfsSpatial(adj [][]spatialEdge, src, skip int) (hops, prev, prevVia []int) {
	nn := len(adj)
	hops = make([]int, nn)
	prev = make([]int, nn)
	prevVia = make([]int, nn)
	for i := range hops {
		hops[i] = -1
		prev[i] = -1
		prevVia[i] = -1
	}
	hops[src] = 0
	queue := make([]int, 1, nn)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range adj[u] {
			if e.to == skip || hops[e.to] >= 0 {
				continue
			}
			hops[e.to] = hops[u] + 1
			prev[e.to] = u
			prevVia[e.to] = e.via
			queue = append(queue, e.to)
		}
	}
	return hops, prev, prevVia
}

// compileSpatialPaths records the spatial distances and the canonical
// flip sets: shortest chains between every stabilizer pair (boundary
// excluded as an intermediate) and from every stabilizer to the
// boundary.
func (m *Model) compileSpatialPaths(owner [][]int) {
	n := m.NumStabs
	adj := m.spatialAdj(owner)
	m.dist = make([]int64, n*n)
	m.pathFlips = make([][][]int, n)
	m.bpathFlips = make([][]int, n)
	for src := 0; src < n; src++ {
		hops, prev, prevVia := bfsSpatial(adj, src, n)
		m.pathFlips[src] = make([][]int, n)
		for dst := 0; dst < n; dst++ {
			m.dist[src*n+dst] = weigh(hops[dst])
			if hops[dst] <= 0 {
				continue
			}
			var flips []int
			for v := dst; v != src; v = prev[v] {
				flips = append(flips, prevVia[v])
			}
			m.pathFlips[src][dst] = flips
		}
	}
	m.bdist = make([]int64, n)
	bh, bprev, bvia := bfsSpatial(adj, n, -1)
	for s := 0; s < n; s++ {
		m.bdist[s] = weigh(bh[s])
		if bh[s] > 0 {
			var flips []int
			for v := s; v != n; v = bprev[v] {
				flips = append(flips, bvia[v])
			}
			m.bpathFlips[s] = flips
		}
	}
}

// weigh converts a hop count into a chain weight, keeping -1 for
// unreachable.
func weigh(hops int) int64 {
	if hops < 0 {
		return -1
	}
	return int64(hops) * Weight
}
