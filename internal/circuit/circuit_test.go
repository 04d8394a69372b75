package circuit

import (
	"strings"
	"testing"
)

func TestNewWidths(t *testing.T) {
	c := New(3, 2)
	if c.NumQubits != 3 || c.NumClbits != 2 {
		t.Fatalf("widths = %d,%d", c.NumQubits, c.NumClbits)
	}
}

func TestNewPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 0)
}

func TestSingleQubitGates(t *testing.T) {
	c := New(1, 0)
	c.H(0)
	c.X(0)
	c.Y(0)
	c.Z(0)
	c.S(0)
	kinds := []GateKind{KindH, KindX, KindY, KindZ, KindS}
	if len(c.Ops) != len(kinds) {
		t.Fatalf("op count = %d", len(c.Ops))
	}
	for i, k := range kinds {
		if c.Ops[i].Kind != k {
			t.Fatalf("op %d kind = %v, want %v", i, c.Ops[i].Kind, k)
		}
		if c.Ops[i].Clbit != -1 {
			t.Fatalf("op %d clbit = %d, want -1", i, c.Ops[i].Clbit)
		}
	}
}

func TestTwoQubitGates(t *testing.T) {
	c := New(2, 0)
	c.CNOT(0, 1)
	c.CZ(1, 0)
	c.SWAP(0, 1)
	if got := c.CountTwoQubit(); got != 3 {
		t.Fatalf("two-qubit count = %d", got)
	}
	if c.Ops[0].Qubits[0] != 0 || c.Ops[0].Qubits[1] != 1 {
		t.Fatal("CNOT control/target order lost")
	}
}

func TestTwoQubitGateSameQubitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0).CNOT(1, 1)
}

func TestGateOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 0).H(1)
}

func TestMeasure(t *testing.T) {
	c := New(2, 2)
	c.Measure(1, 0)
	op := c.Ops[0]
	if op.Kind != KindMeasure || op.Qubits[0] != 1 || op.Clbit != 0 {
		t.Fatalf("measure op wrong: %+v", op)
	}
}

func TestMeasureBadClbitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 1).Measure(0, 3)
}

func TestBarrierDefaultsToAllQubits(t *testing.T) {
	c := New(3, 0)
	c.Barrier()
	if len(c.Ops[0].Qubits) != 3 {
		t.Fatalf("barrier qubits = %v", c.Ops[0].Qubits)
	}
}

func TestRegisters(t *testing.T) {
	c := New(0, 0)
	data := c.AddQReg("data", 5)
	mz := c.AddQReg("mz", 4)
	anc := c.AddQReg("ancilla", 1)
	if data.Start != 0 || mz.Start != 5 || anc.Start != 9 {
		t.Fatalf("register starts: %d %d %d", data.Start, mz.Start, anc.Start)
	}
	if c.NumQubits != 10 {
		t.Fatalf("NumQubits = %d, want 10", c.NumQubits)
	}
	if got := c.QubitRole(6); got != "mz" {
		t.Fatalf("QubitRole(6) = %q", got)
	}
	if got := c.QubitRole(9); got != "ancilla" {
		t.Fatalf("QubitRole(9) = %q", got)
	}
	cr := c.AddCReg("c0", 4)
	if cr.Start != 0 || c.NumClbits != 4 {
		t.Fatal("classical register bookkeeping wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New(2, 1)
	c.CNOT(0, 1)
	cp := c.Clone()
	cp.Ops[0].Qubits[0] = 1
	if c.Ops[0].Qubits[0] != 0 {
		t.Fatal("clone shares qubit slices")
	}
	cp.X(0)
	if len(c.Ops) != 1 {
		t.Fatal("clone shares op slice")
	}
}

func TestAppend(t *testing.T) {
	a := New(2, 1)
	a.H(0)
	b := New(2, 1)
	b.CNOT(0, 1)
	b.Measure(1, 0)
	a.Append(b)
	if len(a.Ops) != 3 {
		t.Fatalf("appended op count = %d", len(a.Ops))
	}
}

func TestAppendWiderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 0).Append(New(2, 0))
}

func TestStringRendering(t *testing.T) {
	c := New(2, 1)
	c.H(0)
	c.CNOT(0, 1)
	c.Measure(1, 0)
	s := c.String()
	for _, want := range []string{"h q0", "cx q0 q1", "measure q1 -> c0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindCNOT.String() != "cx" || KindReset.String() != "reset" {
		t.Fatal("kind mnemonics wrong")
	}
}
