package qec

import (
	"fmt"
	"math"

	"radqec/internal/dem"
	"radqec/internal/matching"
)

// DEM returns the code's compiled detector-error model, building it on
// first use (with the unit prior unless SetPrior installed another one).
// Safe for concurrent use by campaign workers; the compiled model is
// shared by every decoder view of the code.
func (c *Code) DEM() *dem.Model { return c.compiled().m }

// compiledDEM is a compiled detector-error model together with the
// logical flip parity of each of its canonical chains, which is what the
// MWPM miss tier's exact-parity solver reads. The two are built and
// replaced as one value, so a SetPrior never pairs a model with another
// model's parities.
type compiledDEM struct {
	m *dem.Model
	// pairParity[s1·NumStabs+s2] is |PathFlips(s1, s2) ∩ logicalZ| mod 2
	// and boundaryParity[s] the same for BoundaryFlips(s).
	pairParity, boundaryParity []uint8
}

// compiled returns the code's compiledDEM, building it on first use.
func (c *Code) compiled() *compiledDEM {
	if cd := c.dm.Load(); cd != nil {
		return cd
	}
	c.demMu.Lock()
	defer c.demMu.Unlock()
	if cd := c.dm.Load(); cd != nil {
		return cd
	}
	cd, err := c.compile(c.prior)
	if err != nil {
		// Spec fields come from a successfully-built code; a compile
		// failure is a programmer error, like the probability guards in
		// package noise.
		panic(fmt.Sprintf("qec: DEM compile failed for %s: %v", c.Name, err))
	}
	c.dm.Store(cd)
	return cd
}

// compile builds the model under prior pr and its chain parity tables.
func (c *Code) compile(pr dem.Prior) (*compiledDEM, error) {
	m, err := dem.Compile(dem.Spec{
		Stabs:   c.zStabData,
		NumData: c.Data.Size,
		Rounds:  c.Rounds,
		Prior:   pr,
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

// SetPrior recompiles the code's detector-error model against the given
// noise prior (see dem.Prior; the zero value restores the unit prior)
// and resets the batch syndrome memos, which cache decoder outputs of
// the previous model (their DecoderCounters start again from zero). Call
// it before campaigns start, on a code no one else holds: it swaps the
// memos without synchronising against decodes, so it must never be
// called on a code that came out of package exp's registry, which every
// campaign of the process shares.
func (c *Code) SetPrior(pr dem.Prior) error {
	c.demMu.Lock()
	defer c.demMu.Unlock()
	cd, err := c.compile(pr)
	if err != nil {
		return err
	}
	c.prior = pr
	c.dm.Store(cd)
	c.newMemos()
	return nil
}

// NoisePrior derives a detector-error-model prior from a uniform
// depolarizing rate p by counting the error sites feeding each
// mechanism: a data qubit accumulates one depolarizing site per
// stabilizer touching it per round (each with X-component probability
// 2p/3), and a stabilizer's measurement chain accumulates one site per
// support qubit plus the measure and reset ops. Independent sites
// XOR-combine as q = (1 - prod(1-2q_i))/2.
func (c *Code) NoisePrior(p float64) dem.Prior {
	site := 2 * p / 3 // X-component probability of one depolarizing site
	combine := func(sites int) float64 {
		return (1 - math.Pow(1-2*site, float64(sites))) / 2
	}
	pr := dem.Prior{
		DataFlip: make([]float64, c.Data.Size),
		MeasFlip: make([]float64, len(c.zStabData)),
	}
	touches := make([]int, c.Data.Size)
	for _, datas := range c.zStabData {
		for _, d := range datas {
			touches[d]++
		}
	}
	for _, datas := range c.xStabData {
		for _, d := range datas {
			touches[d]++
		}
	}
	for d, n := range touches {
		if n < 1 {
			n = 1
		}
		pr.DataFlip[d] = combine(n)
	}
	for s, datas := range c.zStabData {
		pr.MeasFlip[s] = combine(len(datas) + 2)
	}
	return pr
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
// compiled detector-error model: edge weights are the cached space-time
// shortest-path weights between detection events (log-likelihood
// weighted; all equal under the default unit prior), and corrections
// are the flattened flip sets of the matched chains. The record decodes
// as the one live lane of a one-word DecodeTile, memo included.
func (c *Code) Decode(bits []int) int {
	return c.decodeLane(bits, c.mwpmMemo, mwpmParity)
}

// matcher perfectly matches a defect graph on a workspace and returns
// every vertex's mate.
type matcher func(ws *matching.Workspace, nvertex int, edges []matching.Edge) ([]int, error)

// matchDefects pairs the detection events with match and returns the
// resulting data-qubit flip multiset as a parity mask. Graph, matching
// and mask all live in buf; the mask is valid until buf's next use.
func (c *Code) matchDefects(buf *decodeBuf, defects []defect, match matcher) []bool {
	if cap(buf.flips) < c.Data.Size {
		buf.flips = make([]bool, c.Data.Size)
	}
	flips := buf.flips[:c.Data.Size]
	for d := range flips {
		flips[d] = false
	}
	nd := len(defects)
	if nd == 0 {
		return flips
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
		return flips
	}
	for i, j := range mate[:nd] {
		switch {
		case j >= nd:
			for _, d := range m.BoundaryFlips(defects[i].stab) {
				flips[d] = !flips[d]
			}
		case i < j:
			for _, d := range m.PathFlips(defects[i].stab, defects[j].stab) {
				flips[d] = !flips[d]
			}
		}
	}
	return flips
}
