// Package qec builds the two surface-code families of the paper — the
// bit-flip repetition code and the XXZZ rotated surface code — as
// explicit quantum circuits (Figures 1 and 2), and decodes their
// measurement records with minimum-weight perfect matching over the
// space-time syndrome graph, mirroring the qtcodes + networkx pipeline
// of the original study.
//
// Every code follows the paper's experiment protocol (Section IV-C):
// all data qubits start in |0>, one stabilization round is measured, a
// transversal logical X is applied, a second round is measured, and the
// data qubits are read out (plus a one-bit raw ancilla readout of the
// logical operator). The expected decoded output is logical |1>; a
// decoder output of |0> counts as a logical error.
package qec

import (
	"fmt"
	"sync"

	"radqec/internal/circuit"
)

// Code is a decodable QEC circuit instance.
type Code struct {
	// Name identifies the code and distance, e.g. "rep-(5,1)".
	Name string
	// DZ and DX are the code distance tuple (dZ, dX).
	DZ, DX int
	// Circ is the full encoded circuit.
	Circ *circuit.Circuit

	// Rounds is the number of stabilization rounds (the paper uses 2:
	// one before and one after the logical operation).
	Rounds int
	// Quantum registers (some may be empty for degenerate distances).
	Data, MZ, MX, Anc circuit.Register
	// Classical registers: C0 and C1 are the first two syndrome rounds
	// (always present), CRounds lists every round register in order,
	// DataRead the per-data readout and AncRead the raw one-bit ancilla
	// readout.
	C0, C1, DataRead, AncRead circuit.Register
	CRounds                   []circuit.Register

	// zStabData[s] lists the data qubit indices (register-local) whose
	// Z-parity stabilizer s checks.
	zStabData [][]int
	// xStabData[s] is the same for X stabilizers.
	xStabData [][]int
	// logicalZ lists register-local data indices supporting the logical
	// Z operator; the decoded logical value is their corrected parity.
	logicalZ []int
	// dm is the lazily-compiled detector-error model every decoder view
	// (MWPM/union-find/greedy) runs against, with its chain parity
	// tables; dmOnce builds it so concurrent campaign workers share one
	// compile. See DEM.
	dm     *compiledDEM
	dmOnce sync.Once

	// memo caches, per space-time defect pattern (one word with its
	// parity, for codes of at most 62 detector bits), the parity of the
	// MWPM correction on the logical support — the only way the
	// correction enters the decoded value. It is built with the code and
	// shared by every campaign decoding it, on either engine; the
	// union-find and greedy baselines keep no memo and decode every
	// triggered lane. See DecodeTile.
	memo *parityMemo
}

// NumQubits returns the total number of physical qubits in the circuit.
func (c *Code) NumQubits() int { return c.Circ.NumQubits }

// ZStabilizers returns the data-qubit support (register-local indices)
// of each Z-type stabilizer.
func (c *Code) ZStabilizers() [][]int { return c.zStabData }

// XStabilizers returns the data-qubit support of each X-type stabilizer.
func (c *Code) XStabilizers() [][]int { return c.xStabData }

// LogicalZSupport returns the data qubits whose corrected parity is the
// decoded logical value.
func (c *Code) LogicalZSupport() []int { return c.logicalZ }

// NumZStabs returns the number of Z-type (bit-flip detecting) stabilizers.
func (c *Code) NumZStabs() int { return len(c.zStabData) }

// NumXStabs returns the number of X-type (phase-flip detecting) stabilizers.
func (c *Code) NumXStabs() int { return len(c.xStabData) }

// detectorBits is the width of a shot's space-time defect pattern: one
// bit per Z stabilizer per detection layer.
func (c *Code) detectorBits() int { return len(c.zStabData) * (len(c.CRounds) + 1) }

// ExpectedLogical is the decoded output in the absence of faults.
func (c *Code) ExpectedLogical() int { return 1 }

// String implements fmt.Stringer.
func (c *Code) String() string {
	return fmt.Sprintf("%s [%dq: %d data, %d mz, %d mx, %d anc]",
		c.Name, c.NumQubits(), c.Data.Size, c.MZ.Size, c.MX.Size, c.Anc.Size)
}

// stabRound appends one full stabilization round, measuring Z stabilizers
// then X stabilizers into the classical register c0, and resetting the
// measure qubits for reuse. Z stabilizer s occupies clbit c0.Start+s; X
// stabilizer s occupies c0.Start+len(zStabData)+s.
func (c *Code) stabRound(creg circuit.Register) {
	circ := c.Circ
	for s, datas := range c.zStabData {
		m := c.MZ.Start + s
		for _, d := range datas {
			circ.CNOT(c.Data.Start+d, m)
		}
		circ.Measure(m, creg.Start+s)
		circ.Reset(m)
	}
	for s, datas := range c.xStabData {
		m := c.MX.Start + s
		circ.H(m)
		for _, d := range datas {
			circ.CNOT(m, c.Data.Start+d)
		}
		circ.H(m)
		circ.Measure(m, creg.Start+len(c.zStabData)+s)
		circ.Reset(m)
	}
}

// finishCircuit appends the logical X, the remaining stabilization
// rounds, and the readout blocks shared by every code family.
// logicalXSupport lists register-local data indices receiving the
// transversal X, which is applied between the first and second round
// exactly as in the paper's protocol.
func (c *Code) finishCircuit(logicalXSupport []int) {
	c.memo = newParityMemo(c.detectorBits())
	circ := c.Circ
	c.stabRound(c.CRounds[0])
	circ.Barrier()
	for _, d := range logicalXSupport {
		circ.X(c.Data.Start + d)
	}
	circ.Barrier()
	for r := 1; r < c.Rounds; r++ {
		c.stabRound(c.CRounds[r])
		circ.Barrier()
	}
	// Individual data readout feeding the decoder's final syndrome. It
	// comes straight after the second round so the decoder's record is
	// not exposed to the routing overhead of the raw-readout fan-in
	// below (measurements need no SWAPs; the CNOT fan-in does).
	for d := 0; d < c.Data.Size; d++ {
		circ.Measure(c.Data.Start+d, c.DataRead.Start+d)
	}
	// Raw ancilla readout: parity of the logical Z support, as in the
	// readout blocks of Figures 1 and 2. Measurement collapse makes the
	// parity it accumulates consistent with the data record.
	anc := c.Anc.Start
	for _, d := range c.logicalZ {
		circ.CNOT(c.Data.Start+d, anc)
	}
	circ.Measure(anc, c.AncRead.Start)
}

// RawLogical returns the uncorrected ancilla readout bit of a shot.
func (c *Code) RawLogical(bits []int) int {
	return bits[c.AncRead.Start]
}
