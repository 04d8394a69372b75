package arch

import (
	"testing"
	"testing/quick"

	"radqec/internal/circuit"
	"radqec/internal/rng"
	"radqec/internal/stab"
)

func TestLinear(t *testing.T) {
	topo := Linear(5)
	if topo.Graph.N() != 5 || topo.Graph.NumEdges() != 4 {
		t.Fatalf("linear-5: %d vertices, %d edges", topo.Graph.N(), topo.Graph.NumEdges())
	}
	if !topo.Graph.Connected() {
		t.Fatal("linear not connected")
	}
}

func TestMesh(t *testing.T) {
	topo := Mesh(5, 6)
	if topo.Graph.N() != 30 {
		t.Fatalf("mesh-5x6 has %d vertices", topo.Graph.N())
	}
	// Grid edge count: h*(w-1) + w*(h-1).
	want := 6*4 + 5*5
	if got := topo.Graph.NumEdges(); got != want {
		t.Fatalf("mesh edges = %d, want %d", got, want)
	}
	if !topo.Graph.Connected() {
		t.Fatal("mesh not connected")
	}
}

func TestMeshPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mesh(0, 3)
}

func TestComplete(t *testing.T) {
	topo := Complete(6)
	if got := topo.Graph.NumEdges(); got != 15 {
		t.Fatalf("complete-6 edges = %d", got)
	}
	for v := 0; v < 6; v++ {
		if topo.Graph.Degree(v) != 5 {
			t.Fatalf("vertex %d degree %d", v, topo.Graph.Degree(v))
		}
	}
}

func TestIBMTopologies(t *testing.T) {
	cases := []struct {
		topo      Topology
		wantN     int
		wantEdges int
	}{
		{Almaden(), 20, 23},
		{Johannesburg(), 20, 24},
		{Cairo(), 27, 28},
		{Cambridge(), 28, 30},
		{Brooklyn(), 65, 72},
	}
	for _, c := range cases {
		if c.topo.Graph.N() != c.wantN {
			t.Fatalf("%s: %d qubits, want %d", c.topo.Name, c.topo.Graph.N(), c.wantN)
		}
		if got := c.topo.Graph.NumEdges(); got != c.wantEdges {
			t.Fatalf("%s: %d edges, want %d", c.topo.Name, got, c.wantEdges)
		}
		if !c.topo.Graph.Connected() {
			t.Fatalf("%s: not connected", c.topo.Name)
		}
	}
}

func TestHeavyHexDegreeBound(t *testing.T) {
	// Heavy-hex lattices have maximum degree 3.
	for _, topo := range []Topology{Cairo(), Brooklyn()} {
		for v := 0; v < topo.Graph.N(); v++ {
			if d := topo.Graph.Degree(v); d > 3 {
				t.Fatalf("%s vertex %d degree %d > 3", topo.Name, v, d)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"linear", "mesh", "complete", "almaden", "johannesburg", "cairo", "cambridge", "brooklyn"} {
		topo, err := ByName(name, 10)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if topo.Graph.N() < 10 {
			t.Fatalf("ByName(%s) returned %d qubits", name, topo.Graph.N())
		}
	}
	if _, err := ByName("nonexistent", 4); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := ByName("almaden", 25); err == nil {
		t.Fatal("oversized request on fixed device accepted")
	}
}

func TestByNameMeshGrows(t *testing.T) {
	topo, err := ByName("mesh", 40)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Graph.N() < 40 {
		t.Fatalf("mesh did not grow: %d", topo.Graph.N())
	}
}

func ghzCircuit(n int) *circuit.Circuit {
	c := circuit.New(n, n)
	c.AddQReg("data", n)
	c.AddCReg("c", n)
	c.H(0)
	for q := 0; q+1 < n; q++ {
		c.CNOT(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.Measure(q, q)
	}
	return c
}

// longRange builds a circuit whose CNOTs span distant qubits, forcing
// SWAP insertion on sparse devices.
func longRange(n int) *circuit.Circuit {
	c := circuit.New(n, 1)
	c.AddCReg("c", 1)
	c.H(0)
	c.CNOT(0, n-1)
	c.CNOT(n-1, 0)
	c.Measure(0, 0)
	return c
}

// star builds a circuit where qubit 0 interacts with every other qubit
// repeatedly; its interaction graph K1,(n-1) cannot embed in low-degree
// devices, forcing routing.
func star(n int) *circuit.Circuit {
	c := circuit.New(n, 0)
	for round := 0; round < 2; round++ {
		for q := 1; q < n; q++ {
			c.CNOT(0, q)
		}
	}
	return c
}

func TestTranspileLayoutFollowsInteractions(t *testing.T) {
	// A GHZ chain's interaction graph is a path; the layout must place
	// consecutive chain partners on adjacent vertices of a line device,
	// leaving no SWAPs to insert.
	c := ghzCircuit(6)
	topo := Linear(6)
	tr, err := Transpile(c, topo)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SwapCount != 0 {
		t.Fatalf("chain on line needed %d swaps", tr.SwapCount)
	}
	if err := VerifyRouted(tr); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutInterleavesByAffinity(t *testing.T) {
	// A stabilizer-style circuit d0-m0-d1-m1-d2 (CNOTs d_i->m_i and
	// d_{i+1}->m_i) must be laid out with measure qubits between their
	// data partners, not in register order.
	c := circuit.New(5, 0)
	// data = 0,1,2; measure = 3,4
	c.CNOT(0, 3)
	c.CNOT(1, 3)
	c.CNOT(1, 4)
	c.CNOT(2, 4)
	tr, err := Transpile(c, Linear(5))
	if err != nil {
		t.Fatal(err)
	}
	if tr.SwapCount != 0 {
		t.Fatalf("interleavable chain needed %d swaps", tr.SwapCount)
	}
	// Physical neighbors of measure qubit 3 must include data 0 and 1.
	p3 := tr.Initial.LogToPhys[3]
	p0, p1 := tr.Initial.LogToPhys[0], tr.Initial.LogToPhys[1]
	d03 := abs(p0 - p3)
	d13 := abs(p1 - p3)
	if d03 != 1 || d13 != 1 {
		t.Fatalf("measure qubit not between its data partners: phys(d0)=%d phys(d1)=%d phys(m0)=%d", p0, p1, p3)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestTranspileNoSwapsOnComplete(t *testing.T) {
	c := longRange(8)
	tr, err := Transpile(c, Complete(8))
	if err != nil {
		t.Fatal(err)
	}
	if tr.SwapCount != 0 {
		t.Fatalf("complete graph required %d swaps", tr.SwapCount)
	}
}

func TestTranspileInsertsSwapsOnLinear(t *testing.T) {
	// A degree-7 star cannot embed in a line (max degree 2): the router
	// must insert SWAPs no matter the layout.
	c := star(8)
	tr, err := Transpile(c, Linear(8))
	if err != nil {
		t.Fatal(err)
	}
	if tr.SwapCount == 0 {
		t.Fatal("linear topology needed no swaps for a star circuit")
	}
	if err := VerifyRouted(tr); err != nil {
		t.Fatal(err)
	}
}

func TestTranspileTooSmallDevice(t *testing.T) {
	if _, err := Transpile(ghzCircuit(10), Linear(4)); err == nil {
		t.Fatal("undersized device accepted")
	}
}

// runCircuit executes a circuit on the tableau simulator and returns the
// classical bits.
func runCircuit(c *circuit.Circuit, seed uint64) []int {
	tab := stab.New(c.NumQubits)
	src := rng.New(seed)
	bits := make([]int, c.NumClbits)
	for _, op := range c.Ops {
		switch op.Kind {
		case circuit.KindH:
			tab.H(op.Qubits[0])
		case circuit.KindX:
			tab.X(op.Qubits[0])
		case circuit.KindY:
			tab.Y(op.Qubits[0])
		case circuit.KindZ:
			tab.Z(op.Qubits[0])
		case circuit.KindS:
			tab.S(op.Qubits[0])
		case circuit.KindCNOT:
			tab.CNOT(op.Qubits[0], op.Qubits[1])
		case circuit.KindCZ:
			tab.CZ(op.Qubits[0], op.Qubits[1])
		case circuit.KindSWAP:
			tab.SWAP(op.Qubits[0], op.Qubits[1])
		case circuit.KindMeasure:
			bits[op.Clbit] = tab.MeasureZ(op.Qubits[0], src)
		case circuit.KindReset:
			tab.Reset(op.Qubits[0], src)
		}
	}
	return bits
}

func TestTranspilePreservesSemantics(t *testing.T) {
	// The routed circuit must produce identical classical outcomes to
	// the logical circuit when driven by the same random stream.
	topos := []Topology{Linear(12), Mesh(4, 3), Complete(12), Almaden()}
	for _, topo := range topos {
		c := ghzCircuit(8)
		tr, err := Transpile(c, topo)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		if err := VerifyRouted(tr); err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		for seed := uint64(0); seed < 10; seed++ {
			want := runCircuit(c, seed)
			got := runCircuit(tr.Circuit, seed)
			for b := range want {
				if want[b] != got[b] {
					t.Fatalf("%s seed %d: bit %d = %d, want %d", topo.Name, seed, b, got[b], want[b])
				}
			}
		}
	}
}

func TestTranspileSemanticsProperty(t *testing.T) {
	topo := Cairo()
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		const n = 6
		c := circuit.New(n, n)
		c.AddCReg("c", n)
		for i := 0; i < 25; i++ {
			switch src.Intn(4) {
			case 0:
				c.H(src.Intn(n))
			case 1:
				c.X(src.Intn(n))
			case 2:
				a := src.Intn(n)
				b := (a + 1 + src.Intn(n-1)) % n
				c.CNOT(a, b)
			case 3:
				c.S(src.Intn(n))
			}
		}
		for q := 0; q < n; q++ {
			c.Measure(q, q)
		}
		tr, err := Transpile(c, topo)
		if err != nil || VerifyRouted(tr) != nil {
			return false
		}
		for s := uint64(0); s < 3; s++ {
			want := runCircuit(c, seed^s)
			got := runCircuit(tr.Circuit, seed^s)
			for b := range want {
				if want[b] != got[b] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRoleOf(t *testing.T) {
	c := circuit.New(0, 0)
	c.AddQReg("data", 3)
	c.AddQReg("mz", 2)
	c.H(0)
	tr, err := Transpile(c, Mesh(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	dataCount, mzCount := 0, 0
	for p := 0; p < 30; p++ {
		switch tr.RoleOf(p) {
		case "data":
			dataCount++
		case "mz":
			mzCount++
		}
	}
	if dataCount != 3 || mzCount != 2 {
		t.Fatalf("roles: %d data, %d mz", dataCount, mzCount)
	}
}

func TestCompactLayoutIsConnected(t *testing.T) {
	c := ghzCircuit(9)
	tr, err := Transpile(c, Brooklyn())
	if err != nil {
		t.Fatal(err)
	}
	var placed []int
	for _, p := range tr.Initial.LogToPhys {
		placed = append(placed, p)
	}
	if !tr.Topo.Graph.InducedConnected(placed) {
		t.Fatalf("initial layout not a connected patch: %v", placed)
	}
}

func TestUsedQubits(t *testing.T) {
	c := ghzCircuit(4)
	tr, err := Transpile(c, Linear(10))
	if err != nil {
		t.Fatal(err)
	}
	used := tr.Used()
	if len(used) < 4 {
		t.Fatalf("used = %v", used)
	}
}

func TestSwapCountGrowsWithSparsity(t *testing.T) {
	// Observation VIII: sparse topologies force more SWAPs for the same
	// high-degree circuit.
	c := star(16)
	trLinear, err := Transpile(c, Linear(16))
	if err != nil {
		t.Fatal(err)
	}
	trMesh, err := Transpile(c.Clone(), Mesh(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if trLinear.SwapCount <= trMesh.SwapCount {
		t.Fatalf("linear swaps (%d) should exceed mesh swaps (%d)", trLinear.SwapCount, trMesh.SwapCount)
	}
}
