package stab

import (
	"radqec/internal/circuit"
	"radqec/internal/rng"
)

// Reference is one noiseless execution of a Clifford circuit on the
// stabilizer tableau: the measurement record plus, per measurement, a
// determinism flag telling whether the outcome was predetermined by the
// state (no stabilizer anti-commutes with the measured Z) or drawn as a
// fresh coin. The Pauli-frame engines replay noisy shots against this
// record — deterministic outcomes are reproduced exactly as reference
// XOR frame, non-deterministic ones re-randomise through the frame's
// collapse coins — so the flags are the engine's ground truth for where
// measurement randomness lives.
type Reference struct {
	// Record[k] is the outcome of the k-th measurement op.
	Record []int
	// Deterministic[k] reports whether measurement k's outcome was
	// predetermined (true) or a fresh coin (false).
	Deterministic []bool
	// MeasIndex[i] maps op index i to its measurement index, -1 for
	// non-measurement ops.
	MeasIndex []int
}

// RunReference executes the noiseless circuit once from |0...0>, with
// measurement coins drawn from a stream seeded by seed, and returns the
// reference. The observe hook, when non-nil, sees the live tableau
// after every op (before the next one runs); callers use it to record
// state-dependent facts — e.g. per-site Z expectations and measurement
// branch operators for radiation-fault handling — without a second
// pass. The tableau passed to observe must not be mutated.
func RunReference(circ *circuit.Circuit, seed uint64, observe func(opIndex int, tab *Tableau)) *Reference {
	n := circ.NumQubits
	if n < 1 {
		n = 1
	}
	ref := &Reference{MeasIndex: make([]int, len(circ.Ops))}
	tab := New(n)
	src := rng.New(seed)
	for i, op := range circ.Ops {
		ref.MeasIndex[i] = -1
		switch op.Kind {
		case circuit.KindMeasure:
			ref.MeasIndex[i] = len(ref.Record)
			ref.Deterministic = append(ref.Deterministic, tab.IsDeterministicZ(op.Qubits[0]))
			ref.Record = append(ref.Record, tab.MeasureZ(op.Qubits[0], src))
		case circuit.KindReset:
			tab.Reset(op.Qubits[0], src)
		default:
			tab.Apply(op)
		}
		if observe != nil && op.Kind != circuit.KindBarrier {
			observe(i, tab)
		}
	}
	return ref
}

// Apply applies a unitary op to the tableau; barriers, measurements
// and resets do nothing (they draw coins: see MeasureZ and Reset). It is
// the one gate switch shared by RunReference, Compile, the tableau
// engine and the logical-layer injector.
func (t *Tableau) Apply(op circuit.Op) {
	switch op.Kind {
	case circuit.KindH:
		t.H(op.Qubits[0])
	case circuit.KindX:
		t.X(op.Qubits[0])
	case circuit.KindY:
		t.Y(op.Qubits[0])
	case circuit.KindZ:
		t.Z(op.Qubits[0])
	case circuit.KindS:
		t.S(op.Qubits[0])
	case circuit.KindCNOT:
		t.CNOT(op.Qubits[0], op.Qubits[1])
	case circuit.KindCZ:
		t.CZ(op.Qubits[0], op.Qubits[1])
	case circuit.KindSWAP:
		t.SWAP(op.Qubits[0], op.Qubits[1])
	}
}

// anticommutingRow returns the row of the first stabilizer generator
// with an X component on q, or -1 when there is none (the Z measurement
// of q is deterministic). For a non-deterministic measurement this
// generator is the branch operator: it anti-commutes with Z_q and maps
// the outcome-0 collapse branch onto the outcome-1 branch, so
// conditionally injecting it into a Pauli frame reproduces the
// correlated damage a mid-circuit projection inflicts on the measured
// qubit's entangled partners.
func (t *Tableau) anticommutingRow(q int) int {
	t.checkQ(q)
	w, b := q/64, uint(q%64)
	for i := t.n; i < 2*t.n; i++ {
		if (t.x[i][w]>>b)&1 == 1 {
			return i
		}
	}
	return -1
}
