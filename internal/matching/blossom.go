// Package matching implements maximum-weight matching on general graphs
// via the blossom algorithm (Edmonds 1965, in the O(n^3) primal-dual
// formulation popularised by Galil 1986 and van Rantwijk's reference
// implementation), plus the minimum-weight perfect matching wrapper the
// surface-code decoder needs. This replaces the networkx
// max_weight_matching call used by the paper's qtcodes decoding stack.
package matching

import (
	mathbits "math/bits"
	"sync"
)

// Edge is a weighted undirected edge between vertices I and J.
type Edge struct {
	I, J int
	W    int64
}

// Workspace owns every piece of storage one blossom run needs — the
// flat graph, the label/dual arrays, the per-blossom child, endpoint
// and best-edge lists — and reuses it by capacity, so a matching on a
// warm workspace allocates nothing. The zero value is ready to use. A
// workspace serves one call at a time; the mate slice a call returns
// aliases workspace storage and is valid until the next call.
//
// The algorithm is networkx max_weight_matching, the matcher the
// repository has always decoded with, and it takes the same decisions
// in the same order, so mate arrays — tie-breaks included — are
// identical to referenceMaxWeightMatching in reference_test.go, which
// the differential and fuzz tests hold it to. It does less work for
// them:
//
//   - A least-slack edge carries its slack. Slacks change only when the
//     duals do, so the dual adjustment refreshes the cached values and
//     every comparison in between reads one number.
//   - Per-stage state is reset by what the stage touched: allowed edges
//     are stamped with their stage, blossoms' least-slack lists are
//     logged, and the free vertices are kept as a list.
//   - The image-pairing stages are replayed. The decoder's graph puts
//     k boundary images at vertices k…2k-1 as a clique of weight-0
//     edges and weighs everything else ≥ 0, so after negation every
//     dual starts at the maximum weight 0 and every image edge is
//     tight. Stage s then always does the same thing: the labelling
//     pass pushes the free vertices in index order, so the highest one,
//     image 2k-1-s, is scanned first; its first s edges lead to images
//     k…k+s-1, matched by the earlier stages, which it T-labels; its
//     next edge leads to image k+s, free and S-labelled, and the
//     augmentation along that edge ends the stage. Nothing else
//     survives the stage: duals, blossoms and best edges are untouched
//     and labels and allowed edges are reset by the next one. So the
//     first ⌊k/2⌋ stages are applied as their ⌊k/2⌋ pairs of mates,
//     whenever the flat graph verifies the premise — each image's
//     incident edges begin with the lower images in ascending order, at
//     the maximum weight. Any other graph runs from stage 0.
type Workspace struct {
	nvertex int

	// endpoint[p] is the vertex at endpoint p; edge k owns endpoints 2k
	// (its I side) and 2k+1 (its J side) and has weight[k].
	endpoint []int
	weight   []int64
	// The edges incident to v, in edge order, are
	// nbList[nbStart[v]:nbStart[v+1]] (CSR adjacency).
	nbStart []int
	nbList  []arc

	// mate[v] is the remote endpoint of v's matched edge, or -1.
	mate []int
	// label: 0 free, 1 S-vertex/blossom, 2 T, 5 temporary mark.
	label         []int
	labelend      []int
	inblossom     []int
	blossomparent []int
	blossombase   []int
	// bestedge[b] is b's least-slack edge (-1 when none) and, when it is
	// set, bestslack[b] is that edge's slack at the current duals.
	bestedge  []int
	bestslack []int64
	dualvar   []int64
	// Edge k is allowed (known tight) in stage t when allowedge[k] ==
	// stamp, stamp being t+1.
	allowedge      []int32
	stamp          int32
	queue          []int
	unusedblossoms []int
	// Bit b of live is set while blossom b (≥ nvertex) is in use.
	live             []uint64
	blossomchilds    [][]int
	blossomendps     [][]int
	blossombestedges [][]int
	// listed logs the blossoms given a least-slack list this stage;
	// free lists the unmatched vertices in ascending order.
	listed []int
	free   []int

	// Scratch of single steps: scanBlossom's trail; addBlossom's least
	// slack edge to each S-blossom bj — bestedgeto[bj] with its slack
	// bestslackto[bj], set where bit bj of bestto is — and the new
	// blossom's leaves with each child's end in them; a rotation's head.
	scanPath    []int
	bestedgeto  []int
	bestslackto []int64
	bestto      []uint64
	leafBuf     []int
	leafEnds    []int
	rotBuf      []int

	// replayed counts the image-pairing stages the last call replayed.
	replayed int

	// edgeBuf holds the derived edge list of a front end: the greedy
	// matcher's weight-ordered copy, the float matcher's quantized one.
	edgeBuf []Edge
}

// arc is one entry of a vertex's adjacency: an incident edge's remote
// endpoint p, the vertex w at it and the edge's weight.
type arc struct {
	p, w   int
	weight int64
}

// workspaces backs the package-level wrappers, which have no caller to
// own a workspace.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// MaxWeightMatching computes a maximum-weight matching. The result maps
// each vertex to its mate (-1 when unmatched).
func MaxWeightMatching(nvertex int, edges []Edge, maxCardinality bool) []int {
	ws := workspaces.Get().(*Workspace)
	defer workspaces.Put(ws)
	return append([]int(nil), ws.MaxWeightMatching(nvertex, edges, maxCardinality)...)
}

// grow returns s with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// freshMate returns the mate array sized for n vertices, all unmatched.
func (ws *Workspace) freshMate(n int) []int {
	ws.mate = grow(ws.mate, n)
	for i := range ws.mate {
		ws.mate[i] = -1
	}
	return ws.mate
}

func growLists(s [][]int, n int) [][]int {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]int, n-cap(s))...)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// MaxWeightMatching computes a maximum-weight matching of the graph. If
// maxCardinality is true it computes a maximum-cardinality matching of
// maximum weight among those. The result maps each vertex to its mate
// (-1 when unmatched) and is valid until the workspace's next call.
//
// Weights must be integers; the algorithm keeps all dual variables
// integral, so the result is exact.
func (ws *Workspace) MaxWeightMatching(nvertex int, edges []Edge, maxCardinality bool) []int {
	return ws.run(nvertex, edges, 1, maxCardinality)
}

// run matches the graph whose edge k weighs sign·edges[k].W.
func (ws *Workspace) run(nvertex int, edges []Edge, sign int64, maxCardinality bool) []int {
	mate := ws.freshMate(nvertex)
	ws.replayed = 0
	if nvertex == 0 || len(edges) == 0 {
		return mate
	}
	ws.nvertex = nvertex
	nedge := len(edges)

	ws.endpoint = grow(ws.endpoint, 2*nedge)
	ws.weight = grow(ws.weight, nedge)
	ws.nbStart = grow(ws.nbStart, nvertex+1)
	ws.nbList = grow(ws.nbList, 2*nedge)
	endpoint, weight, nbStart, nbList := ws.endpoint, ws.weight, ws.nbStart, ws.nbList
	clear(nbStart)
	var maxweight int64
	for k, e := range edges {
		if uint(e.I) >= uint(nvertex) || uint(e.J) >= uint(nvertex) || e.I == e.J {
			panic("matching: edge endpoints out of range or self loop")
		}
		w := sign * e.W
		if w > maxweight {
			maxweight = w
		}
		weight[k] = w
		endpoint[2*k] = e.I
		endpoint[2*k+1] = e.J
		nbStart[e.I+1]++
		nbStart[e.J+1]++
	}
	for v := 0; v < nvertex; v++ {
		nbStart[v+1] += nbStart[v]
	}
	// Fill in edge order with nbStart[v] as v's cursor, then shift the
	// cursors (now each list's end) back to the list starts.
	for k, e := range edges {
		nbList[nbStart[e.I]] = arc{2*k + 1, e.J, weight[k]}
		nbStart[e.I]++
		nbList[nbStart[e.J]] = arc{2 * k, e.I, weight[k]}
		nbStart[e.J]++
	}
	copy(nbStart[1:], nbStart[:nvertex])
	nbStart[0] = 0

	ws.label = grow(ws.label, 2*nvertex)
	ws.labelend = grow(ws.labelend, 2*nvertex)
	ws.inblossom = grow(ws.inblossom, nvertex)
	ws.blossomparent = grow(ws.blossomparent, 2*nvertex)
	ws.blossombase = grow(ws.blossombase, 2*nvertex)
	ws.bestedge = grow(ws.bestedge, 2*nvertex)
	ws.bestslack = grow(ws.bestslack, 2*nvertex)
	ws.bestedgeto = grow(ws.bestedgeto, 2*nvertex)
	ws.bestslackto = grow(ws.bestslackto, 2*nvertex)
	ws.bestto = grow(ws.bestto, (2*nvertex+63)/64)
	clear(ws.bestto)
	ws.blossomchilds = growLists(ws.blossomchilds, 2*nvertex)
	ws.blossomendps = growLists(ws.blossomendps, 2*nvertex)
	ws.blossombestedges = growLists(ws.blossombestedges, 2*nvertex)
	ws.dualvar = grow(ws.dualvar, 2*nvertex)
	ws.allowedge = grow(ws.allowedge, nedge)
	clear(ws.allowedge)
	ws.live = grow(ws.live, (2*nvertex+63)/64)
	clear(ws.live)
	ws.queue = ws.queue[:0]
	ws.unusedblossoms = ws.unusedblossoms[:0]
	ws.listed = ws.listed[:0]

	label, labelend, inblossom := ws.label, ws.labelend, ws.inblossom
	blossomparent, blossombase := ws.blossomparent, ws.blossombase
	bestedge, bestslack := ws.bestedge, ws.bestslack
	dualvar, allowedge, live := ws.dualvar, ws.allowedge, ws.live

	for v := 0; v < nvertex; v++ {
		inblossom[v] = v
		blossombase[v] = v
		dualvar[v] = maxweight
	}
	for b := 0; b < 2*nvertex; b++ {
		labelend[b] = -1
		blossomparent[b] = -1
		bestedge[b] = -1
	}
	for b := nvertex; b < 2*nvertex; b++ {
		blossombase[b] = -1
		dualvar[b] = 0
		ws.unusedblossoms = append(ws.unusedblossoms, b)
	}

	first := ws.replayImagePairs(maxweight)
	free := ws.free[:0]
	for v := 0; v < nvertex; v++ {
		if mate[v] == -1 {
			free = append(free, v)
		}
	}

	// Main loop: one stage per augmentation opportunity.
	for t := first; t < nvertex; t++ {
		clear(label)
		for i := range bestedge {
			bestedge[i] = -1
		}
		for _, b := range ws.listed {
			ws.blossombestedges[b] = ws.blossombestedges[b][:0]
		}
		ws.listed = ws.listed[:0]
		ws.stamp = int32(t + 1)
		stamp := ws.stamp
		ws.queue = ws.queue[:0]
		for _, v := range free {
			if label[inblossom[v]] == 0 {
				ws.assignLabel(v, 1, -1)
			}
		}
		augmented := false
		for {
			for len(ws.queue) > 0 && !augmented {
				v := ws.queue[len(ws.queue)-1]
				ws.queue = ws.queue[:len(ws.queue)-1]
				bv, dv := inblossom[v], dualvar[v]
				for _, a := range nbList[nbStart[v]:nbStart[v+1]] {
					p, w := a.p, a.w
					k := p >> 1
					bw := inblossom[w]
					if bv == bw {
						continue
					}
					var kslack int64
					if allowedge[k] != stamp {
						kslack = dv + dualvar[w] - 2*a.weight
						if kslack <= 0 {
							allowedge[k] = stamp
						}
					}
					if allowedge[k] == stamp {
						switch {
						case label[bw] == 0:
							ws.assignLabel(w, 2, p^1)
						case label[bw] == 1:
							base := ws.scanBlossom(v, w)
							if base >= 0 {
								ws.addBlossom(base, k)
								bv = inblossom[v]
							} else {
								ws.augmentMatching(k)
								augmented = true
							}
						case label[w] == 0:
							label[w] = 2
							labelend[w] = p ^ 1
						}
						if augmented {
							break
						}
					} else if label[bw] == 1 {
						if bestedge[bv] == -1 || kslack < bestslack[bv] {
							bestedge[bv] = k
							bestslack[bv] = kslack
						}
					} else if label[w] == 0 {
						if bestedge[w] == -1 || kslack < bestslack[w] {
							bestedge[w] = k
							bestslack[w] = kslack
						}
					}
				}
			}
			if augmented {
				break
			}
			// Compute the dual adjustment delta: the first least
			// candidate of each type, taken in type order so ties go as
			// one pass over the types in turn would send them.
			deltatype := -1
			var delta int64
			deltaedge, deltablossom := -1, -1
			if !maxCardinality {
				deltatype = 1
				delta = dualvar[0]
				for v := 1; v < nvertex; v++ {
					if dualvar[v] < delta {
						delta = dualvar[v]
					}
				}
			}
			// Type 2: a free vertex's least-slack edge to an S-vertex.
			// Type 3: a least-slack edge between S-blossoms, halved; the
			// vertices come first, then the blossoms. Type 4: a T-blossom's
			// dual.
			d2, e2, d3, e3 := int64(0), -1, int64(0), -1
			for v := 0; v < nvertex; v++ {
				if bestedge[v] == -1 {
					continue
				}
				if label[inblossom[v]] == 0 {
					if e2 == -1 || bestslack[v] < d2 {
						d2, e2 = bestslack[v], bestedge[v]
					}
				}
				if blossomparent[v] == -1 && label[v] == 1 {
					if d := bestslack[v] / 2; e3 == -1 || d < d3 {
						d3, e3 = d, bestedge[v]
					}
				}
			}
			d4, b4 := int64(0), -1
			for wi, word := range live {
				for ; word != 0; word &= word - 1 {
					b := wi*64 + mathbits.TrailingZeros64(word)
					if blossomparent[b] != -1 {
						continue
					}
					if label[b] == 1 && bestedge[b] != -1 {
						if d := bestslack[b] / 2; e3 == -1 || d < d3 {
							d3, e3 = d, bestedge[b]
						}
					}
					if label[b] == 2 && (b4 == -1 || dualvar[b] < d4) {
						d4, b4 = dualvar[b], b
					}
				}
			}
			if e2 != -1 && (deltatype == -1 || d2 < delta) {
				delta, deltatype, deltaedge = d2, 2, e2
			}
			if e3 != -1 && (deltatype == -1 || d3 < delta) {
				delta, deltatype, deltaedge = d3, 3, e3
			}
			if b4 != -1 && (deltatype == -1 || d4 < delta) {
				delta, deltatype, deltablossom = d4, 4, b4
			}
			if deltatype == -1 {
				// No further progress possible (maxCardinality path):
				// make one final dual adjustment and stop the substage.
				deltatype = 1
				min := dualvar[0]
				for v := 1; v < nvertex; v++ {
					if dualvar[v] < min {
						min = dualvar[v]
					}
				}
				delta = min
				if delta < 0 {
					delta = 0
				}
			}
			// Apply the dual adjustment, then bring the cached slacks of
			// the best edges up to the new duals.
			for v := 0; v < nvertex; v++ {
				switch label[inblossom[v]] {
				case 1:
					dualvar[v] -= delta
				case 2:
					dualvar[v] += delta
				}
			}
			for wi, word := range live {
				for ; word != 0; word &= word - 1 {
					b := wi*64 + mathbits.TrailingZeros64(word)
					if blossomparent[b] == -1 {
						switch label[b] {
						case 1:
							dualvar[b] += delta
						case 2:
							dualvar[b] -= delta
						}
					}
				}
			}
			if delta != 0 {
				for b, k := range bestedge {
					if k != -1 {
						bestslack[b] = ws.slack(k)
					}
				}
			}
			switch deltatype {
			case 1:
				// Optimum reached.
			case 2:
				allowedge[deltaedge] = stamp
				i := endpoint[2*deltaedge]
				if label[inblossom[i]] == 0 {
					i = endpoint[2*deltaedge+1]
				}
				ws.queue = append(ws.queue, i)
			case 3:
				allowedge[deltaedge] = stamp
				ws.queue = append(ws.queue, endpoint[2*deltaedge])
			case 4:
				ws.expandBlossom(deltablossom, false)
			}
			if deltatype == 1 {
				break
			}
		}
		if !augmented {
			break
		}
		// The augmentation matched two free vertices.
		n := 0
		for _, v := range free {
			if mate[v] == -1 {
				free[n] = v
				n++
			}
		}
		free = free[:n]
		// End of stage: expand unlabelled S-blossoms with zero dual. An
		// expansion only retires blossoms and lifts children of nonzero
		// dual to the top level, so a word read before it still
		// decides as the index loop would.
		for wi, word := range live {
			for ; word != 0; word &= word - 1 {
				b := wi*64 + mathbits.TrailingZeros64(word)
				if blossomparent[b] == -1 && blossombase[b] >= 0 && label[b] == 1 && dualvar[b] == 0 {
					ws.expandBlossom(b, true)
				}
			}
		}
	}
	ws.free = free

	for v := 0; v < nvertex; v++ {
		if mate[v] >= 0 {
			mate[v] = endpoint[mate[v]]
		}
	}
	return mate
}

// replayImagePairs applies the image-pairing stages (see Workspace) when
// the flat graph verifies their premise, and returns how many it
// applied: the stage the main loop starts at.
func (ws *Workspace) replayImagePairs(maxweight int64) int {
	n := ws.nvertex
	if n%2 != 0 {
		return 0
	}
	k := n / 2
	for j := k + 1; j < n; j++ {
		nb := ws.nbList[ws.nbStart[j]:ws.nbStart[j+1]]
		if len(nb) < j-k {
			return 0
		}
		for i, a := range nb[:j-k] {
			if a.w != k+i || a.weight != maxweight {
				return 0
			}
		}
	}
	for s := 0; s < k/2; s++ {
		// Stage s matches image 2k-1-s along its (s+1)-th edge, the one
		// to image k+s.
		v := n - 1 - s
		p := ws.nbList[ws.nbStart[v]+s].p
		ws.mate[v] = p
		ws.mate[ws.endpoint[p]] = p ^ 1
	}
	ws.replayed = k / 2
	return k / 2
}

func (ws *Workspace) slack(k int) int64 {
	return ws.dualvar[ws.endpoint[2*k]] + ws.dualvar[ws.endpoint[2*k+1]] - 2*ws.weight[k]
}

// appendLeaves appends the vertices of (sub-)blossom b to dst in
// child order, depth first.
func (ws *Workspace) appendLeaves(dst []int, b int) []int {
	if b < ws.nvertex {
		return append(dst, b)
	}
	for _, t := range ws.blossomchilds[b] {
		dst = ws.appendLeaves(dst, t)
	}
	return dst
}

func (ws *Workspace) assignLabel(w, t, p int) {
	for {
		b := ws.inblossom[w]
		ws.label[w] = t
		ws.label[b] = t
		ws.labelend[w] = p
		ws.labelend[b] = p
		ws.bestedge[w] = -1
		ws.bestedge[b] = -1
		if t == 1 {
			ws.queue = ws.appendLeaves(ws.queue, b)
			return
		}
		// t == 2: a T-blossom's base is matched; its mate becomes an
		// S-vertex.
		base := ws.blossombase[b]
		w, t, p = ws.endpoint[ws.mate[base]], 1, ws.mate[base]^1
	}
}

// scanBlossom traces back from v and w to discover either a new
// blossom base (returned) or an augmenting path (-1).
func (ws *Workspace) scanBlossom(v, w int) int {
	label, labelend, inblossom, endpoint := ws.label, ws.labelend, ws.inblossom, ws.endpoint
	path := ws.scanPath[:0]
	base := -1
	for v != -1 || w != -1 {
		b := inblossom[v]
		if label[b]&4 != 0 {
			base = ws.blossombase[b]
			break
		}
		path = append(path, b)
		label[b] = 5
		if labelend[b] == -1 {
			v = -1
		} else {
			v = endpoint[labelend[b]]
			b = inblossom[v]
			v = endpoint[labelend[b]]
		}
		if w != -1 {
			v, w = w, v
		}
	}
	for _, b := range path {
		label[b] = 1
	}
	ws.scanPath = path
	return base
}

func (ws *Workspace) addBlossom(base, k int) {
	label, labelend, inblossom, endpoint := ws.label, ws.labelend, ws.inblossom, ws.endpoint
	blossomparent, bestedge := ws.blossomparent, ws.bestedge
	v, w := endpoint[2*k], endpoint[2*k+1]
	bb := inblossom[base]
	bv := inblossom[v]
	bw := inblossom[w]
	b := ws.unusedblossoms[len(ws.unusedblossoms)-1]
	ws.unusedblossoms = ws.unusedblossoms[:len(ws.unusedblossoms)-1]
	ws.live[b/64] |= 1 << (b % 64)
	ws.blossombase[b] = base
	blossomparent[b] = -1
	blossomparent[bb] = b
	path, endps := ws.blossomchilds[b][:0], ws.blossomendps[b][:0]
	for bv != bb {
		blossomparent[bv] = b
		path = append(path, bv)
		endps = append(endps, labelend[bv])
		v = endpoint[labelend[bv]]
		bv = inblossom[v]
	}
	path = append(path, bb)
	// Reverse so the base comes first.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	for i, j := 0, len(endps)-1; i < j; i, j = i+1, j-1 {
		endps[i], endps[j] = endps[j], endps[i]
	}
	endps = append(endps, 2*k)
	for bw != bb {
		blossomparent[bw] = b
		path = append(path, bw)
		endps = append(endps, labelend[bw]^1)
		w = endpoint[labelend[bw]]
		bw = inblossom[w]
	}
	ws.blossomchilds[b] = path
	ws.blossomendps[b] = endps
	label[b] = 1
	labelend[b] = labelend[bb]
	ws.dualvar[b] = 0
	// The leaves of b, child by child: child i's are
	// leaves[ends[i-1]:ends[i]].
	leaves, ends := ws.leafBuf[:0], ws.leafEnds[:0]
	for _, c := range path {
		leaves = ws.appendLeaves(leaves, c)
		ends = append(ends, len(leaves))
	}
	ws.leafBuf, ws.leafEnds = leaves, ends
	for _, lv := range leaves {
		if label[inblossom[lv]] == 2 {
			ws.queue = append(ws.queue, lv)
		}
		inblossom[lv] = b
	}
	// Recompute the best-edge cache for the new blossom: the least-slack
	// edge from b to each other S-blossom, collected in bestedgeto.
	nbStart, nbList := ws.nbStart, ws.nbList
	start := 0
	for i, bvv := range path {
		if len(ws.blossombestedges[bvv]) == 0 {
			// No list of least-slack edges (a vertex, or a sub-blossom
			// whose list came out empty): walk the leaves' edges. The
			// far end of an edge from a leaf is its remote endpoint.
			for _, lv := range leaves[start:ends[i]] {
				dv := ws.dualvar[lv]
				for _, a := range nbList[nbStart[lv]:nbStart[lv+1]] {
					if bj := inblossom[a.w]; bj != b && label[bj] == 1 {
						ws.offerBestEdge(bj, a.p>>1, dv+ws.dualvar[a.w]-2*a.weight)
					}
				}
			}
		} else {
			for _, kk := range ws.blossombestedges[bvv] {
				j := endpoint[2*kk+1]
				if inblossom[j] == b {
					j = endpoint[2*kk]
				}
				if bj := inblossom[j]; bj != b && label[bj] == 1 {
					ws.offerBestEdge(bj, kk, ws.slack(kk))
				}
			}
		}
		start = ends[i]
		ws.blossombestedges[bvv] = ws.blossombestedges[bvv][:0]
		bestedge[bvv] = -1
	}
	// Read the offers out in S-blossom order, clearing the marks, and
	// keep the first of least slack as b's best edge.
	best := ws.blossombestedges[b][:0]
	bestedge[b] = -1
	for wi, word := range ws.bestto {
		for ; word != 0; word &= word - 1 {
			bj := wi*64 + mathbits.TrailingZeros64(word)
			kk, sl := ws.bestedgeto[bj], ws.bestslackto[bj]
			best = append(best, kk)
			if bestedge[b] == -1 || sl < ws.bestslack[b] {
				bestedge[b] = kk
				ws.bestslack[b] = sl
			}
		}
		ws.bestto[wi] = 0
	}
	ws.blossombestedges[b] = best
	ws.listed = append(ws.listed, b)
}

// offerBestEdge offers edge kk, of slack sl, as the least-slack edge
// from the new blossom to the S-blossom bj at its far end.
func (ws *Workspace) offerBestEdge(bj, kk int, sl int64) {
	if w, bit := bj/64, uint64(1)<<(bj%64); ws.bestto[w]&bit == 0 {
		ws.bestto[w] |= bit
	} else if sl >= ws.bestslackto[bj] {
		return
	}
	ws.bestedgeto[bj] = kk
	ws.bestslackto[bj] = sl
}

// wrap maps a possibly negative child index onto [0, n).
func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

func (ws *Workspace) expandBlossom(b int, endstage bool) {
	nvertex := ws.nvertex
	label, labelend, inblossom, endpoint := ws.label, ws.labelend, ws.inblossom, ws.endpoint
	childs, endps := ws.blossomchilds[b], ws.blossomendps[b]
	for _, s := range childs {
		ws.blossomparent[s] = -1
		if s < nvertex {
			inblossom[s] = s
		} else if endstage && ws.dualvar[s] == 0 {
			ws.expandBlossom(s, endstage)
		} else {
			ws.leafBuf = ws.appendLeaves(ws.leafBuf[:0], s)
			for _, v := range ws.leafBuf {
				inblossom[v] = s
			}
		}
	}
	if !endstage && label[b] == 2 {
		// The expanded T-blossom's children must be relabelled.
		n := len(childs)
		entrychild := inblossom[endpoint[labelend[b]^1]]
		j := 0
		for i, c := range childs {
			if c == entrychild {
				j = i
				break
			}
		}
		var jstep, endptrick int
		if j&1 != 0 {
			j -= n
			jstep = 1
			endptrick = 0
		} else {
			jstep = -1
			endptrick = 1
		}
		p := labelend[b]
		for j != 0 {
			label[endpoint[p^1]] = 0
			label[endpoint[endps[wrap(j-endptrick, n)]^endptrick^1]] = 0
			ws.assignLabel(endpoint[p^1], 2, p)
			ws.allowedge[endps[wrap(j-endptrick, n)]/2] = ws.stamp
			j += jstep
			p = endps[wrap(j-endptrick, n)] ^ endptrick
			ws.allowedge[p/2] = ws.stamp
			j += jstep
		}
		bv := childs[wrap(j, n)]
		label[endpoint[p^1]] = 2
		label[bv] = 2
		labelend[endpoint[p^1]] = p
		labelend[bv] = p
		ws.bestedge[bv] = -1
		j += jstep
		for childs[wrap(j, n)] != entrychild {
			bv := childs[wrap(j, n)]
			if label[bv] == 1 {
				j += jstep
				continue
			}
			vv := -1
			ws.leafBuf = ws.appendLeaves(ws.leafBuf[:0], bv)
			for _, lv := range ws.leafBuf {
				if label[lv] != 0 {
					vv = lv
					break
				}
			}
			if vv != -1 {
				label[vv] = 0
				label[endpoint[ws.mate[ws.blossombase[bv]]]] = 0
				ws.assignLabel(vv, 2, labelend[vv])
			}
			j += jstep
		}
	}
	label[b] = -1
	labelend[b] = -1
	ws.blossomchilds[b] = childs[:0]
	ws.blossomendps[b] = endps[:0]
	ws.blossombase[b] = -1
	ws.blossombestedges[b] = ws.blossombestedges[b][:0]
	ws.bestedge[b] = -1
	ws.unusedblossoms = append(ws.unusedblossoms, b)
	ws.live[b/64] &^= 1 << (b % 64)
}

// rotate moves s[i:] to the front of s, in place.
func (ws *Workspace) rotate(s []int, i int) {
	ws.rotBuf = append(ws.rotBuf[:0], s[:i]...)
	copy(s, s[i:])
	copy(s[len(s)-i:], ws.rotBuf)
}

func (ws *Workspace) augmentBlossom(b, v int) {
	nvertex := ws.nvertex
	endpoint, mate := ws.endpoint, ws.mate
	t := v
	for ws.blossomparent[t] != b {
		t = ws.blossomparent[t]
	}
	if t >= nvertex {
		ws.augmentBlossom(t, v)
	}
	childs, endps := ws.blossomchilds[b], ws.blossomendps[b]
	n := len(childs)
	i := 0
	for ii, c := range childs {
		if c == t {
			i = ii
			break
		}
	}
	j := i
	var jstep, endptrick int
	if i&1 != 0 {
		j -= n
		jstep = 1
		endptrick = 0
	} else {
		jstep = -1
		endptrick = 1
	}
	for j != 0 {
		j += jstep
		t := childs[wrap(j, n)]
		p := endps[wrap(j-endptrick, n)] ^ endptrick
		if t >= nvertex {
			ws.augmentBlossom(t, endpoint[p])
		}
		j += jstep
		t = childs[wrap(j, n)]
		if t >= nvertex {
			ws.augmentBlossom(t, endpoint[p^1])
		}
		mate[endpoint[p]] = p ^ 1
		mate[endpoint[p^1]] = p
	}
	// Rotate the child list so the new base comes first.
	ws.rotate(childs, i)
	ws.rotate(endps, i)
	ws.blossombase[b] = ws.blossombase[childs[0]]
}

func (ws *Workspace) augmentMatching(k int) {
	nvertex := ws.nvertex
	labelend, inblossom, endpoint, mate := ws.labelend, ws.inblossom, ws.endpoint, ws.mate
	for side := 0; side < 2; side++ {
		s, p := endpoint[2*k+side], 2*k+1-side
		for {
			bs := inblossom[s]
			if bs >= nvertex {
				ws.augmentBlossom(bs, s)
			}
			mate[s] = p
			if labelend[bs] == -1 {
				break
			}
			t := endpoint[labelend[bs]]
			bt := inblossom[t]
			s = endpoint[labelend[bt]]
			j := endpoint[labelend[bt]^1]
			if bt >= nvertex {
				ws.augmentBlossom(bt, j)
			}
			mate[j] = labelend[bt]
			p = labelend[bt] ^ 1
		}
	}
}
