package qec

import (
	"fmt"

	"radqec/internal/dem"
	"radqec/internal/matching"
)

// DEM returns the code's compiled detector-error model, building it on
// first use. Safe for concurrent use by campaign workers; the compiled
// model is shared by every decoder view of the code.
func (c *Code) DEM() *dem.Model { return c.compiled().m }

// compiledDEM is a compiled detector-error model together with the
// logical flip parity of each of its canonical chains, which is what the
// MWPM miss tier's exact-parity solver reads.
type compiledDEM struct {
	m *dem.Model
	// pairParity[s1·NumStabs+s2] is |PathFlips(s1, s2) ∩ logicalZ| mod 2
	// and boundaryParity[s] the same for BoundaryFlips(s).
	pairParity, boundaryParity []uint8
}

// compiled returns the code's compiledDEM, building it on first use.
func (c *Code) compiled() *compiledDEM {
	c.dmOnce.Do(func() {
		cd, err := c.compile()
		if err != nil {
			// Spec fields come from a successfully-built code; a compile
			// failure is a programmer error, like the probability guards
			// in package noise.
			panic(fmt.Sprintf("qec: DEM compile failed for %s: %v", c.Name, err))
		}
		c.dm = cd
	})
	return c.dm
}

// compile builds the model and its chain parity tables.
func (c *Code) compile() (*compiledDEM, error) {
	m, err := dem.Compile(dem.Spec{
		Stabs:   c.zStabData,
		NumData: c.Data.Size,
		Rounds:  c.Rounds,
	})
	if err != nil {
		return nil, err
	}
	onLogical := make([]uint8, c.Data.Size)
	for _, d := range c.logicalZ {
		onLogical[d] ^= 1
	}
	parity := func(flips []int) uint8 {
		var p uint8
		for _, d := range flips {
			p ^= onLogical[d]
		}
		return p
	}
	nz := len(c.zStabData)
	cd := &compiledDEM{m: m, pairParity: make([]uint8, nz*nz), boundaryParity: make([]uint8, nz)}
	for s1 := 0; s1 < nz; s1++ {
		cd.boundaryParity[s1] = parity(m.BoundaryFlips(s1))
		for s2 := 0; s2 < nz; s2++ {
			cd.pairParity[s1*nz+s2] = parity(m.PathFlips(s1, s2))
		}
	}
	return cd, nil
}

// defect is one detection event in the space-time syndrome history.
type defect struct {
	stab  int // Z stabilizer index
	round int // detection layer: 0 .. Rounds
}

// Decode runs the MWPM decoder over a shot's classical record and
// returns the corrected logical value (0 or 1). The record layout is the
// one produced by the code builders: CRounds hold the syndrome rounds,
// DataRead the final per-data-qubit measurements. Matching runs on the
// compiled detector-error model: edge weights are the space-time
// shortest-path weights between detection events (every mechanism
// weighs dem.Weight), and corrections are the flattened flip sets of the
// matched chains. The record decodes as the one live lane of a one-word
// DecodeTile, memo included.
func (c *Code) Decode(bits []int) int {
	return c.decodeLane(bits, c.memo, mwpmParity)
}

// matcher perfectly matches a defect graph on a workspace and returns
// every vertex's mate.
type matcher func(ws *matching.Workspace, nvertex int, edges []matching.Edge) ([]int, error)

// matchMates pairs the detection events with match on the defect graph
// and returns every defect's mate: another defect's index, or nd or
// above for the defect's boundary image. Graph and matching live in buf;
// the mates are valid until buf's next use. ok is false when there are
// no defects or no perfect matching, which corrects nothing.
func (c *Code) matchMates(buf *decodeBuf, defects []defect, match matcher) (mate []int, ok bool) {
	nd := len(defects)
	if nd == 0 {
		return nil, false
	}
	m := c.DEM()
	// Nodes 0..nd-1 are defects; nd..2nd-1 their private boundary
	// images. Boundary images interconnect at zero cost so unused ones
	// pair among themselves.
	edges := buf.edges[:0]
	for i := 0; i < nd; i++ {
		for j := i + 1; j < nd; j++ {
			w := m.Dist(defects[i].stab, defects[i].round, defects[j].stab, defects[j].round)
			if w < 0 {
				continue
			}
			edges = append(edges, matching.Edge{I: i, J: j, W: w})
		}
		if bw := m.BoundaryDist(defects[i].stab); bw >= 0 {
			edges = append(edges, matching.Edge{I: i, J: nd + i, W: bw})
		}
		for j := i + 1; j < nd; j++ {
			edges = append(edges, matching.Edge{I: nd + i, J: nd + j, W: 0})
		}
	}
	buf.edges = edges
	mate, err := match(&buf.ws, 2*nd, edges)
	if err != nil {
		// No perfect matching means the syndrome is undecodable (cannot
		// happen on connected decode graphs); fail open with no
		// correction rather than crash a campaign.
		return nil, false
	}
	return mate[:nd], true
}

// matchParity is the logical flip parity of the correction match picks:
// each matched chain's parity read from the compiled tables, folded over
// the mates. By GF(2) linearity it is the parity of the XORed flip sets
// on the logical support, without building them.
func (c *Code) matchParity(buf *decodeBuf, defects []defect, match matcher) uint64 {
	mate, ok := c.matchMates(buf, defects, match)
	if !ok {
		return 0
	}
	cd := c.compiled()
	nz := len(c.zStabData)
	nd := len(defects)
	var p uint8
	for i, j := range mate {
		switch {
		case j >= nd:
			p ^= cd.boundaryParity[defects[i].stab]
		case i < j:
			p ^= cd.pairParity[defects[i].stab*nz+defects[j].stab]
		}
	}
	return uint64(p)
}
