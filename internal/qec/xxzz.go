package qec

import (
	"fmt"

	"radqec/internal/circuit"
)

// NewXXZZ builds the distance-(dZ, dX) XXZZ rotated surface code
// (Figure 1 of the paper): a dZ x dX grid of data qubits, plaquette
// stabilizers on a checkerboard with weight-2 boundary stabilizers, and
// one raw-readout ancilla, for 2*dZ*dX qubits total.
//
// dZ is the bit-flip protection distance (minimum weight of an
// undetectable X chain) and dX the phase-flip distance. Both must be odd
// and their product at least 3.
//
// Construction: interior cells of the (dZ-1) x (dX-1) dual grid
// alternate Z- and X-plaquettes; the left/right boundaries carry the
// weight-2 Z stabilizers and the top/bottom boundaries the weight-2 X
// stabilizers. Logical Z runs horizontally along row 0 (weight dX);
// logical X vertically along column 0 (weight dZ). The total stabilizer
// count is always dZ*dX - 1; the Z/X split matches qtcodes exactly for
// square codes and preserves the distances for rectangular ones.
func NewXXZZ(dZ, dX int) (*Code, error) {
	return NewXXZZRounds(dZ, dX, 2)
}

// NewXXZZRounds is NewXXZZ with an explicit number of stabilization
// rounds (>= 2); the transversal logical X is applied between the first
// and second round.
func NewXXZZRounds(dZ, dX, rounds int) (*Code, error) {
	if dZ < 1 || dX < 1 || dZ%2 == 0 || dX%2 == 0 {
		return nil, fmt.Errorf("qec: XXZZ distances must be odd and positive, got (%d,%d)", dZ, dX)
	}
	if dZ*dX < 3 {
		return nil, fmt.Errorf("qec: XXZZ code needs at least 3 data qubits, got %d", dZ*dX)
	}
	if rounds < 2 {
		return nil, fmt.Errorf("qec: at least 2 stabilization rounds required, got %d", rounds)
	}
	rows, cols := dZ, dX
	dataAt := func(r, col int) int { return r*cols + col }

	var zStabs, xStabs [][]int
	// Interior plaquettes: cell (r, c) covers data corners
	// (r-1..r) x (c-1..c) for r in 1..rows-1, c in 1..cols-1.
	for r := 1; r < rows; r++ {
		for col := 1; col < cols; col++ {
			corners := []int{
				dataAt(r-1, col-1), dataAt(r-1, col),
				dataAt(r, col-1), dataAt(r, col),
			}
			if (r+col)%2 == 0 {
				zStabs = append(zStabs, corners)
			} else {
				xStabs = append(xStabs, corners)
			}
		}
	}
	// Left/right boundary Z stabilizers: vertical data pairs. The parity
	// choice interleaves them with the interior checkerboard so every
	// adjacent vertical pair on each side is covered exactly once.
	for r := 1; r < rows; r++ {
		if r%2 == 0 { // left edge, cell (r, 0)
			zStabs = append(zStabs, []int{dataAt(r-1, 0), dataAt(r, 0)})
		} else { // right edge, cell (r, cols)
			zStabs = append(zStabs, []int{dataAt(r-1, cols-1), dataAt(r, cols-1)})
		}
	}
	// Top/bottom boundary X stabilizers: horizontal data pairs.
	for col := 1; col < cols; col++ {
		if col%2 == 1 { // top edge, cell (0, col)
			xStabs = append(xStabs, []int{dataAt(0, col-1), dataAt(0, col)})
		} else { // bottom edge, cell (rows, col)
			xStabs = append(xStabs, []int{dataAt(rows-1, col-1), dataAt(rows-1, col)})
		}
	}

	c := &Code{
		Name:   fmt.Sprintf("xxzz-(%d,%d)", dZ, dX),
		DZ:     dZ,
		DX:     dX,
		Rounds: rounds,
	}
	circ := circuit.New(0, 0)
	n := rows * cols
	c.Data = circ.AddQReg("data", n)
	c.MZ = circ.AddQReg("mz", len(zStabs))
	c.MX = circ.AddQReg("mx", len(xStabs))
	c.Anc = circ.AddQReg("ancilla", 1)
	nStabs := len(zStabs) + len(xStabs)
	for r := 0; r < rounds; r++ {
		c.CRounds = append(c.CRounds, circ.AddCReg(fmt.Sprintf("c%d", r), nStabs))
	}
	c.C0, c.C1 = c.CRounds[0], c.CRounds[1]
	c.DataRead = circ.AddCReg("dataread", n)
	c.AncRead = circ.AddCReg("readout", 1)
	c.Circ = circ
	c.zStabData = zStabs
	c.xStabData = xStabs

	// Logical Z: row 0; logical X: column 0.
	for col := 0; col < cols; col++ {
		c.logicalZ = append(c.logicalZ, dataAt(0, col))
	}
	var logicalX []int
	for r := 0; r < rows; r++ {
		logicalX = append(logicalX, dataAt(r, 0))
	}
	c.finishCircuit(logicalX)
	return c, nil
}

// XXZZDistances lists the (dZ, dX) pairs evaluated in the paper's
// Figure 6b.
func XXZZDistances() [][2]int {
	return [][2]int{{1, 3}, {3, 1}, {3, 3}, {3, 5}, {5, 3}}
}
