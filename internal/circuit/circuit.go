// Package circuit defines the quantum-circuit intermediate representation
// used by the surface-code builders, the transpiler, and the fault
// injector. A Circuit is an ordered stream of operations over quantum and
// classical registers, mirroring the gate-based formalism of the paper
// (Figures 1 and 2): Clifford gates, mid-circuit measurement into
// classical bits, and non-unitary reset.
package circuit

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// GateKind enumerates every operation the IR supports. The set is the
// Clifford group fragment needed by the repetition and XXZZ codes plus
// the non-unitary reset and measurement channels.
type GateKind int

const (
	// KindH is the Hadamard gate.
	KindH GateKind = iota
	// KindX is the Pauli-X (bit flip) gate.
	KindX
	// KindY is the Pauli-Y gate.
	KindY
	// KindZ is the Pauli-Z (phase flip) gate.
	KindZ
	// KindS is the phase gate (sqrt of Z).
	KindS
	// KindCNOT is the controlled-X gate; Qubits[0] controls Qubits[1].
	KindCNOT
	// KindCZ is the controlled-Z gate (symmetric).
	KindCZ
	// KindSWAP exchanges two qubit states.
	KindSWAP
	// KindMeasure measures Qubits[0] in the Z basis into Clbit.
	KindMeasure
	// KindReset non-unitarily forces Qubits[0] to |0>. This is the
	// radiation fault channel of the paper (Section III-B).
	KindReset
	// KindBarrier is a scheduling fence; it touches Qubits but has no
	// quantum effect and receives no injected noise.
	KindBarrier
)

var kindNames = [...]string{"h", "x", "y", "z", "s", "cx", "cz", "swap", "measure", "reset", "barrier"}

// String returns the lower-case mnemonic of the gate kind.
func (k GateKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("gate(%d)", int(k))
}

// Op is one operation in a circuit.
type Op struct {
	Kind   GateKind
	Qubits []int
	// Clbit is the classical bit receiving a measurement outcome; it is
	// -1 for non-measurement operations.
	Clbit int
}

// Register names a contiguous block of qubits (or classical bits). The
// surface-code builders use registers to mark each qubit's role (data,
// Z-stabilizer measure, X-stabilizer measure, ancilla), which Figure 8
// of the paper correlates with criticality.
type Register struct {
	Name  string
	Start int
	Size  int
}

// Contains reports whether index i falls inside the register.
func (r Register) Contains(i int) bool { return i >= r.Start && i < r.Start+r.Size }

// Circuit is an ordered operation stream over NumQubits qubits and
// NumClbits classical bits. A Circuit must not be copied after first
// use; Clone makes an independent one.
type Circuit struct {
	NumQubits int
	NumClbits int
	Ops       []Op
	QRegs     []Register
	CRegs     []Register

	// compiled is the one artefact compiled from Ops (see Compiled),
	// nil until first use and again after any append.
	compiled   atomic.Pointer[any]
	compiledMu sync.Mutex
}

// New returns an empty circuit with the given quantum and classical
// widths.
func New(numQubits, numClbits int) *Circuit {
	if numQubits < 0 || numClbits < 0 {
		panic("circuit: negative register width")
	}
	return &Circuit{NumQubits: numQubits, NumClbits: numClbits}
}

// Compiled returns the artefact compiled from the circuit's ops,
// calling build on the circuit for it on first use; concurrent first
// users get one build and the same value. The circuit owns the slot, not its type:
// package stab keeps the compiled noiseless reference here, so that it
// is shared by every simulator of the circuit and collected with it.
// Appending an op drops the value; ops written through the Ops field
// directly must not follow a first use.
func (c *Circuit) Compiled(build func(*Circuit) any) any {
	if v := c.compiled.Load(); v != nil {
		return *v
	}
	c.compiledMu.Lock()
	defer c.compiledMu.Unlock()
	if v := c.compiled.Load(); v != nil {
		return *v
	}
	v := build(c)
	c.compiled.Store(&v)
	return v
}

// appendOp is the one place Ops grows: whatever was compiled from the
// shorter op list is stale.
func (c *Circuit) appendOp(op Op) {
	c.Ops = append(c.Ops, op)
	c.compiled.Store(nil)
}

// AddQReg appends a named qubit register covering the next size qubits
// and returns it. Registers are purely descriptive; they never change
// operational semantics.
func (c *Circuit) AddQReg(name string, size int) Register {
	start := 0
	for _, r := range c.QRegs {
		start += r.Size
	}
	r := Register{Name: name, Start: start, Size: size}
	c.QRegs = append(c.QRegs, r)
	if start+size > c.NumQubits {
		c.NumQubits = start + size
	}
	return r
}

// AddCReg appends a named classical register and returns it.
func (c *Circuit) AddCReg(name string, size int) Register {
	start := 0
	for _, r := range c.CRegs {
		start += r.Size
	}
	r := Register{Name: name, Start: start, Size: size}
	c.CRegs = append(c.CRegs, r)
	if start+size > c.NumClbits {
		c.NumClbits = start + size
	}
	return r
}

// QubitRole returns the name of the register holding qubit q, or "".
func (c *Circuit) QubitRole(q int) string {
	for _, r := range c.QRegs {
		if r.Contains(q) {
			return r.Name
		}
	}
	return ""
}

func (c *Circuit) checkQ(q int) {
	if q < 0 || q >= c.NumQubits {
		panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits))
	}
}

func (c *Circuit) checkC(b int) {
	if b < 0 || b >= c.NumClbits {
		panic(fmt.Sprintf("circuit: clbit %d out of range [0,%d)", b, c.NumClbits))
	}
}

func (c *Circuit) append1(kind GateKind, q int) {
	c.checkQ(q)
	c.appendOp(Op{Kind: kind, Qubits: []int{q}, Clbit: -1})
}

func (c *Circuit) append2(kind GateKind, a, b int) {
	c.checkQ(a)
	c.checkQ(b)
	if a == b {
		panic("circuit: two-qubit gate on identical qubits")
	}
	c.appendOp(Op{Kind: kind, Qubits: []int{a, b}, Clbit: -1})
}

// H appends a Hadamard on q.
func (c *Circuit) H(q int) { c.append1(KindH, q) }

// X appends a Pauli-X on q.
func (c *Circuit) X(q int) { c.append1(KindX, q) }

// Y appends a Pauli-Y on q.
func (c *Circuit) Y(q int) { c.append1(KindY, q) }

// Z appends a Pauli-Z on q.
func (c *Circuit) Z(q int) { c.append1(KindZ, q) }

// S appends a phase gate on q.
func (c *Circuit) S(q int) { c.append1(KindS, q) }

// CNOT appends a controlled-X with the given control and target.
func (c *Circuit) CNOT(control, target int) { c.append2(KindCNOT, control, target) }

// CZ appends a controlled-Z between a and b.
func (c *Circuit) CZ(a, b int) { c.append2(KindCZ, a, b) }

// SWAP appends a swap of a and b.
func (c *Circuit) SWAP(a, b int) { c.append2(KindSWAP, a, b) }

// Measure appends a Z-basis measurement of q into classical bit bit.
func (c *Circuit) Measure(q, bit int) {
	c.checkQ(q)
	c.checkC(bit)
	c.appendOp(Op{Kind: KindMeasure, Qubits: []int{q}, Clbit: bit})
}

// Reset appends a non-unitary reset of q to |0>.
func (c *Circuit) Reset(q int) { c.append1(KindReset, q) }

// Barrier appends a scheduling fence over the given qubits (all qubits
// when none are listed).
func (c *Circuit) Barrier(qs ...int) {
	if len(qs) == 0 {
		qs = make([]int, c.NumQubits)
		for i := range qs {
			qs[i] = i
		}
	}
	for _, q := range qs {
		c.checkQ(q)
	}
	c.appendOp(Op{Kind: KindBarrier, Qubits: append([]int(nil), qs...), Clbit: -1})
}

// Append copies every operation of other onto the end of c. The two
// circuits must have compatible widths.
func (c *Circuit) Append(other *Circuit) {
	if other.NumQubits > c.NumQubits || other.NumClbits > c.NumClbits {
		panic("circuit: Append source wider than destination")
	}
	for _, op := range other.Ops {
		cp := op
		cp.Qubits = append([]int(nil), op.Qubits...)
		c.appendOp(cp)
	}
}

// CountTwoQubit returns the number of two-qubit gates (CNOT, CZ, SWAP).
func (c *Circuit) CountTwoQubit() int {
	n := 0
	for _, op := range c.Ops {
		switch op.Kind {
		case KindCNOT, KindCZ, KindSWAP:
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the circuit's registers and ops. The
// compiled slot is neither shared nor copied: the clone compiles its
// own on first use.
func (c *Circuit) Clone() *Circuit {
	cp := &Circuit{
		NumQubits: c.NumQubits,
		NumClbits: c.NumClbits,
		Ops:       make([]Op, len(c.Ops)),
		QRegs:     append([]Register(nil), c.QRegs...),
		CRegs:     append([]Register(nil), c.CRegs...),
	}
	for i, op := range c.Ops {
		cp.Ops[i] = Op{Kind: op.Kind, Qubits: append([]int(nil), op.Qubits...), Clbit: op.Clbit}
	}
	return cp
}

// String renders the circuit as one mnemonic per line, e.g. "cx q3 q4"
// and "measure q1 -> c0". Useful for debugging and golden tests.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %dq %dc\n", c.NumQubits, c.NumClbits)
	for _, op := range c.Ops {
		b.WriteString(op.Kind.String())
		for _, q := range op.Qubits {
			fmt.Fprintf(&b, " q%d", q)
		}
		if op.Clbit >= 0 {
			fmt.Fprintf(&b, " -> c%d", op.Clbit)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
