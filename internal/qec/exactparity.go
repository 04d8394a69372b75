package qec

import mathbits "math/bits"

// The exact-parity tier answers a novel MWPM syndrome without the
// blossom whenever every minimum-weight correction of it has the same
// flip parity on the logical support.
//
// The blossom returns some minimum-weight perfect matching of the
// defect graph matchMates builds: defects 0..k-1, a private boundary
// image per defect, and zero-cost edges between the images. Unused
// images pair among themselves for free, so those matchings are exactly
// the minimum-weight defect-level solutions, in which each defect is
// resolved either to its boundary or to one partner. A correction enters
// the decoded value only through its parity, which is the XOR of the
// chosen chains' parities. So when all minimum-weight solutions share one
// parity, that parity is the blossom's, whatever its tie-break.
//
// The solver finds the set of parities the minimum-weight solutions
// reach:
//
//   - A pair with w_ij > b_i + b_j (both boundaries reachable) is in no
//     minimum-weight solution: the two boundary matches are strictly
//     cheaper. Dropping those pairs keeps the set of minimum-weight
//     solutions, and it splits the defects into components that are
//     solved independently.
//   - Each component is solved by a subset DP that resolves its lowest
//     unresolved defect first, to its boundary or to a remaining partner.
//     A state keeps its minimum cost and the set of parities reached at
//     that cost. Weights are int64, so ties are exact.
//   - The component parity sets combine by XOR.
//
// The tier declines, and the blossom runs, when a component is larger
// than exactCap, when a component has no feasible solution, or when some
// component reaches both parities at its minimum cost. In that last case
// the blossom's tie-break is the answer.

// exactCap is the largest component the tier solves. The DP visits at
// most 2^exactCap subsets of a component, and its memo takes 13 bytes
// per subset. In a census at seed 7 (docs/design.md, "The miss tier"),
// cap 10 answered 99.6% of the lanes cap 14 answers on fig6, 99.2% on
// fig8 and 89.6% on memory.
const exactCap = 10

// exactMaxDefects bounds the defect count the tier looks at: the
// relevant-pair graph is one 64-bit adjacency mask per defect.
const exactMaxDefects = 64

// exactBuf is the exact-parity tier's scratch, kept in decodeBuf.
type exactBuf struct {
	// bound[i] is defect i's boundary distance, adj[i] the mask of its
	// relevant partners and comps the components found.
	bound [exactMaxDefects]int64
	adj   [exactMaxDefects]uint64
	comps [exactMaxDefects]uint64

	// The component being solved, renumbered 0..n-1 in defect order:
	// boundary distance and parity, and for a < b the relevant pair
	// weights, parities and the mask of a's relevant partners above a.
	lb   [exactCap]int64
	lbp  [exactCap]uint8
	w    [exactCap][exactCap]int64
	par  [exactCap][exactCap]uint8
	ladj [exactCap]uint16

	// The DP memo over unresolved subsets: an entry is valid when its
	// stamp equals epoch, so a new component costs no clearing.
	cost  [1 << exactCap]int64
	set   [1 << exactCap]uint8
	stamp [1 << exactCap]uint32
	epoch uint32
}

// exactParity returns the flip parity every minimum-weight correction
// of defects shares, and false when the tier declines.
func (e *exactBuf) exactParity(cd *compiledDEM, defects []defect) (uint64, bool) {
	k := len(defects)
	if k > exactMaxDefects {
		return 0, false
	}
	m := cd.m
	for i, d := range defects {
		e.bound[i] = m.BoundaryDist(d.stab)
		e.adj[i] = 0
	}
	for i := 0; i < k; i++ {
		di, bi := defects[i], e.bound[i]
		for j := i + 1; j < k; j++ {
			dj, bj := defects[j], e.bound[j]
			w := m.Dist(di.stab, di.round, dj.stab, dj.round)
			if w < 0 || (bi >= 0 && bj >= 0 && w > bi+bj) {
				continue
			}
			e.adj[i] |= 1 << uint(j)
			e.adj[j] |= 1 << uint(i)
		}
	}
	// Every component's size is checked before any DP runs: one
	// oversized component sends the lane to the blossom anyway.
	nc := 0
	var seen uint64
	for i := 0; i < k; i++ {
		if seen>>uint(i)&1 != 0 {
			continue
		}
		comp := uint64(1) << uint(i)
		for frontier := comp; frontier != 0; {
			var next uint64
			for f := frontier; f != 0; f &= f - 1 {
				next |= e.adj[mathbits.TrailingZeros64(f)]
			}
			frontier = next &^ comp
			comp |= next
		}
		if mathbits.OnesCount64(comp) > exactCap {
			return 0, false
		}
		seen |= comp
		e.comps[nc] = comp
		nc++
	}
	var parity uint64
	for _, comp := range e.comps[:nc] {
		set := e.solveComponent(cd, defects, comp)
		if set != 1 && set != 2 {
			return 0, false
		}
		parity ^= uint64(set >> 1)
	}
	return parity, true
}

// solveComponent returns the set of parities (bit p for parity p) the
// minimum-weight solutions of one component reach; 0 means the
// component has no solution.
func (e *exactBuf) solveComponent(cd *compiledDEM, defects []defect, comp uint64) uint8 {
	m := cd.m
	nz := m.NumStabs
	var idx [exactCap]int
	n := 0
	for f := comp; f != 0; f &= f - 1 {
		idx[n] = mathbits.TrailingZeros64(f)
		n++
	}
	for a := 0; a < n; a++ {
		da := defects[idx[a]]
		e.lb[a] = e.bound[idx[a]]
		e.lbp[a] = cd.boundaryParity[da.stab]
		e.ladj[a] = 0
		for b := a + 1; b < n; b++ {
			if e.adj[idx[a]]>>uint(idx[b])&1 == 0 {
				continue
			}
			db := defects[idx[b]]
			e.w[a][b] = m.Dist(da.stab, da.round, db.stab, db.round)
			e.par[a][b] = cd.pairParity[da.stab*nz+db.stab]
			e.ladj[a] |= 1 << uint(b)
		}
	}
	e.epoch++
	if e.epoch == 0 {
		e.stamp = [1 << exactCap]uint32{}
		e.epoch = 1
	}
	_, set := e.solve(uint(1)<<uint(n) - 1)
	return set
}

// solve returns the minimum cost of resolving the unresolved local
// defects u and the set of parities reached at that cost (0 when u has
// no solution).
func (e *exactBuf) solve(u uint) (int64, uint8) {
	if u == 0 {
		return 0, 1
	}
	if e.stamp[u] == e.epoch {
		return e.cost[u], e.set[u]
	}
	i := mathbits.TrailingZeros(u)
	rest := u &^ (1 << uint(i))
	var best int64
	var set uint8
	if e.lb[i] >= 0 {
		if c, s := e.solve(rest); s != 0 {
			best, set = c+e.lb[i], flipSet(s, e.lbp[i])
		}
	}
	for f := uint(e.ladj[i]) & rest; f != 0; f &= f - 1 {
		j := mathbits.TrailingZeros(f)
		c, s := e.solve(rest &^ (1 << uint(j)))
		if s == 0 {
			continue
		}
		c += e.w[i][j]
		s = flipSet(s, e.par[i][j])
		switch {
		case set == 0 || c < best:
			best, set = c, s
		case c == best:
			set |= s
		}
	}
	e.stamp[u], e.cost[u], e.set[u] = e.epoch, best, set
	return best, set
}

// flipSet XORs parity p into every parity of set s: s·5 holds s's two
// bits twice over, so shifting it by p swaps them when p is 1.
func flipSet(s, p uint8) uint8 { return s * 5 >> p & 3 }
