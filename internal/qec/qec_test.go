package qec

import (
	"testing"
	"testing/quick"

	"radqec/internal/circuit"
	"radqec/internal/inject"
	"radqec/internal/noise"
	"radqec/internal/rng"
)

func mustRep(t testing.TB, d int) *Code {
	t.Helper()
	c, err := NewRepetition(d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustXXZZ(t testing.TB, dZ, dX int) *Code {
	t.Helper()
	c, err := NewXXZZ(dZ, dX)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cleanRun executes the code's circuit without any noise and returns the
// classical record.
func cleanRun(t testing.TB, c *Code, seed uint64) []int {
	t.Helper()
	ex := inject.NewExecutor(c.Circ, noise.Depolarizing{}, nil)
	return ex.Run(rng.New(seed))
}

func TestRepetitionSizes(t *testing.T) {
	for _, d := range RepetitionDistances() {
		c := mustRep(t, d)
		if got := c.NumQubits(); got != 2*d {
			t.Fatalf("rep-%d: %d qubits, want %d", d, got, 2*d)
		}
		if c.NumZStabs() != d-1 || c.NumXStabs() != 0 {
			t.Fatalf("rep-%d: %d Z / %d X stabs", d, c.NumZStabs(), c.NumXStabs())
		}
		if c.Data.Size != d || c.MZ.Size != d-1 || c.Anc.Size != 1 {
			t.Fatalf("rep-%d register sizes wrong", d)
		}
	}
}

func TestRepetitionRejectsBadDistance(t *testing.T) {
	for _, d := range []int{0, 1, 2, 4, -3} {
		if _, err := NewRepetition(d); err == nil {
			t.Fatalf("NewRepetition(%d) accepted", d)
		}
	}
}

func TestXXZZSizes(t *testing.T) {
	cases := []struct {
		dZ, dX, wantZ, wantX int
	}{
		{3, 3, 4, 4},
		{3, 5, 6, 8},
		{5, 3, 8, 6},
		{1, 3, 0, 2},
		{3, 1, 2, 0},
		{5, 5, 12, 12},
	}
	for _, cse := range cases {
		c := mustXXZZ(t, cse.dZ, cse.dX)
		if got := c.NumQubits(); got != 2*cse.dZ*cse.dX {
			t.Fatalf("xxzz-(%d,%d): %d qubits, want %d", cse.dZ, cse.dX, got, 2*cse.dZ*cse.dX)
		}
		if c.NumZStabs() != cse.wantZ || c.NumXStabs() != cse.wantX {
			t.Fatalf("xxzz-(%d,%d): %d Z / %d X stabs, want %d / %d",
				cse.dZ, cse.dX, c.NumZStabs(), c.NumXStabs(), cse.wantZ, cse.wantX)
		}
		if c.NumZStabs()+c.NumXStabs() != cse.dZ*cse.dX-1 {
			t.Fatalf("xxzz-(%d,%d): stabilizer count != n-1", cse.dZ, cse.dX)
		}
	}
}

func TestXXZZRejectsBadDistances(t *testing.T) {
	for _, d := range [][2]int{{2, 3}, {3, 2}, {0, 3}, {1, 1}, {-3, 3}} {
		if _, err := NewXXZZ(d[0], d[1]); err == nil {
			t.Fatalf("NewXXZZ(%d,%d) accepted", d[0], d[1])
		}
	}
}

func overlap(a, b []int) int {
	m := make(map[int]bool, len(a))
	for _, v := range a {
		m[v] = true
	}
	n := 0
	for _, v := range b {
		if m[v] {
			n++
		}
	}
	return n
}

func TestStabilizerAlgebra(t *testing.T) {
	codes := []*Code{
		mustRep(t, 5), mustRep(t, 15),
		mustXXZZ(t, 3, 3), mustXXZZ(t, 3, 5), mustXXZZ(t, 5, 3), mustXXZZ(t, 5, 5),
		mustXXZZ(t, 1, 3), mustXXZZ(t, 3, 1),
	}
	for _, c := range codes {
		// Z and X stabilizers must commute: even overlap.
		for zi, z := range c.ZStabilizers() {
			for xi, x := range c.XStabilizers() {
				if overlap(z, x)%2 != 0 {
					t.Fatalf("%s: Z stab %d and X stab %d anticommute", c.Name, zi, xi)
				}
			}
		}
		// Logical Z must commute with every X stabilizer.
		for xi, x := range c.XStabilizers() {
			if overlap(c.LogicalZSupport(), x)%2 != 0 {
				t.Fatalf("%s: logical Z anticommutes with X stab %d", c.Name, xi)
			}
		}
		// Every data qubit sits in at most two Z stabilizers (the
		// matching decode-graph assumption).
		count := make(map[int]int)
		for _, z := range c.ZStabilizers() {
			for _, d := range z {
				count[d]++
			}
		}
		for d, n := range count {
			if n > 2 {
				t.Fatalf("%s: data %d in %d Z stabilizers", c.Name, d, n)
			}
		}
	}
}

func TestLogicalXCommutesWithZStabs(t *testing.T) {
	// The transversal X applied mid-circuit must not trip any Z
	// stabilizer: round 1 and round 2 syndromes agree without noise.
	codes := []*Code{mustRep(t, 7), mustXXZZ(t, 3, 3), mustXXZZ(t, 5, 3), mustXXZZ(t, 3, 5)}
	for _, c := range codes {
		bits := cleanRun(t, c, 11)
		for s := 0; s < c.NumZStabs(); s++ {
			if bits[c.C0.Start+s] != 0 || bits[c.C1.Start+s] != 0 {
				t.Fatalf("%s: Z syndrome fired without noise (stab %d)", c.Name, s)
			}
		}
	}
}

func TestCleanDecodeIsLogicalOne(t *testing.T) {
	codes := []*Code{
		mustRep(t, 3), mustRep(t, 5), mustRep(t, 15),
		mustXXZZ(t, 3, 3), mustXXZZ(t, 1, 3), mustXXZZ(t, 3, 1),
		mustXXZZ(t, 3, 5), mustXXZZ(t, 5, 3),
	}
	for _, c := range codes {
		for seed := uint64(0); seed < 25; seed++ {
			bits := cleanRun(t, c, seed)
			if got := c.Decode(bits); got != 1 {
				t.Fatalf("%s seed %d: decoded %d, want 1", c.Name, seed, got)
			}
			if got := c.RawLogical(bits); got != 1 {
				t.Fatalf("%s seed %d: raw readout %d, want 1", c.Name, seed, got)
			}
		}
	}
}

func TestDecodeCorrectsReadoutErrors(t *testing.T) {
	// Flipping up to floor((d-1)/2) final data readout bits must be
	// corrected by the matching decoder.
	c := mustRep(t, 7)
	base := cleanRun(t, c, 3)
	flipSets := [][]int{{0}, {3}, {6}, {0, 3}, {2, 5}, {1, 4, 6}}
	for _, flips := range flipSets {
		bits := append([]int(nil), base...)
		for _, d := range flips {
			bits[c.DataRead.Start+d] ^= 1
		}
		if got := c.Decode(bits); got != 1 {
			t.Fatalf("flips %v: decoded %d, want 1", flips, got)
		}
	}
}

func TestDecodeCorrectsXXZZReadoutError(t *testing.T) {
	c := mustXXZZ(t, 3, 3)
	for d := 0; d < c.Data.Size; d++ {
		bits := cleanRun(t, c, 5)
		bits[c.DataRead.Start+d] ^= 1
		if got := c.Decode(bits); got != 1 {
			t.Fatalf("single readout flip on data %d uncorrected (got %d)", d, got)
		}
	}
}

func TestDecodeUncorrectableMajorityFlip(t *testing.T) {
	// Flipping a majority of the data bits crosses the logical boundary:
	// the decoder must output 0.
	c := mustRep(t, 5)
	bits := cleanRun(t, c, 7)
	for d := 0; d < 5; d++ {
		bits[c.DataRead.Start+d] ^= 1
	}
	if got := c.Decode(bits); got != 0 {
		t.Fatalf("all-flip decoded %d, want logical error (0)", got)
	}
}

func TestDecodeCorrectsEarlyDataError(t *testing.T) {
	// An X error injected before the first stabilization round trips
	// round-0 syndromes; a single one must always be corrected.
	for _, mk := range []func() *Code{
		func() *Code { return mustRep(t, 5) },
		func() *Code { return mustXXZZ(t, 3, 3) },
	} {
		c := mk()
		for d := 0; d < c.Data.Size; d++ {
			// Prepend an X on data qubit d to a clone of the circuit.
			circ := circuit.New(c.Circ.NumQubits, c.Circ.NumClbits)
			circ.X(c.Data.Start + d)
			circ.Append(c.Circ)
			ex := inject.NewExecutor(circ, noise.Depolarizing{}, nil)
			for seed := uint64(0); seed < 5; seed++ {
				bits := ex.Run(rng.New(seed))
				if got := c.Decode(bits); got != 1 {
					t.Fatalf("%s: early X on data %d uncorrected (seed %d)", c.Name, d, seed)
				}
			}
		}
	}
}

func TestDecodeCorrectsMidCircuitError(t *testing.T) {
	// A single X error between the two stabilization rounds is detected
	// by the round-1/round-2 difference and must be corrected.
	c := mustXXZZ(t, 3, 3)
	base := c.Circ
	// Find the first barrier (after round 1) and inject there.
	insertAt := -1
	for i, op := range base.Ops {
		if op.Kind == circuit.KindBarrier {
			insertAt = i
			break
		}
	}
	if insertAt == -1 {
		t.Fatal("no barrier found")
	}
	for d := 0; d < c.Data.Size; d++ {
		circ := circuit.New(base.NumQubits, base.NumClbits)
		for i, op := range base.Ops {
			cp := op
			cp.Qubits = append([]int(nil), op.Qubits...)
			circ.Ops = append(circ.Ops, cp)
			if i == insertAt {
				circ.X(c.Data.Start + d)
			}
		}
		ex := inject.NewExecutor(circ, noise.Depolarizing{}, nil)
		bits := ex.Run(rng.New(9))
		if got := c.Decode(bits); got != 1 {
			t.Fatalf("mid-circuit X on data %d uncorrected (got %d)", d, got)
		}
	}
}

func TestDecodeDeterministic(t *testing.T) {
	c := mustXXZZ(t, 3, 3)
	ev := noise.NewRadiationEvent(distancesFromData(c, 2), 1.0, true)
	ex := inject.NewExecutor(c.Circ, noise.NewDepolarizing(0.01), ev)
	bits := ex.Run(rng.New(42))
	first := c.Decode(bits)
	for i := 0; i < 10; i++ {
		if got := c.Decode(bits); got != first {
			t.Fatal("Decode not deterministic")
		}
	}
}

// distancesFromData builds a fake per-qubit distance table with the root
// at the given qubit index and unit steps along the index line; good
// enough for executor-level tests.
func distancesFromData(c *Code, root int) []int {
	dist := make([]int, c.NumQubits())
	for q := range dist {
		d := q - root
		if d < 0 {
			d = -d
		}
		dist[q] = d
	}
	return dist
}

func TestRadiationDegradesDecoding(t *testing.T) {
	// A full-strength strike must cause logical errors at a meaningful
	// rate; without it the rate is zero.
	c := mustRep(t, 5)
	ev := noise.NewRadiationEvent(distancesFromData(c, 2), 1.0, true)
	clean := inject.Campaign{
		Exec:       inject.NewExecutor(c.Circ, noise.Depolarizing{}, nil),
		DecodeTile: c.DecodeTile,
		Expected:   1,
	}
	if _, errors := clean.RunFrom(1, 0, 300); errors != 0 {
		t.Fatalf("clean campaign produced %d errors", errors)
	}
	hot := inject.Campaign{
		Exec:       inject.NewExecutor(c.Circ, noise.Depolarizing{}, ev),
		DecodeTile: c.DecodeTile,
		Expected:   1,
	}
	if _, errors := hot.RunFrom(1, 0, 300); errors == 0 {
		t.Fatal("radiated campaign produced no logical errors")
	}
}

func TestDecodePropertyRandomReadoutNoise(t *testing.T) {
	// Whatever garbage the readout contains, Decode must return 0 or 1
	// and never panic.
	c := mustXXZZ(t, 3, 3)
	base := cleanRun(t, c, 1)
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		bits := append([]int(nil), base...)
		for i := range bits {
			if src.Bool(0.3) {
				bits[i] ^= 1
			}
		}
		v := c.Decode(bits)
		return v == 0 || v == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyDecoderAgreesOnSimpleErrors(t *testing.T) {
	c := mustRep(t, 7)
	base := cleanRun(t, c, 2)
	for d := 0; d < 7; d++ {
		bits := append([]int(nil), base...)
		bits[c.DataRead.Start+d] ^= 1
		if got := c.decodeLane(bits, c.greedyMemo, greedyParity); got != 1 {
			t.Fatalf("greedy decoder failed on single flip at %d", d)
		}
	}
}

func TestCodeString(t *testing.T) {
	c := mustRep(t, 5)
	if got := c.String(); got == "" {
		t.Fatal("empty String()")
	}
}

func TestXXZZDistancesList(t *testing.T) {
	if len(XXZZDistances()) != 5 {
		t.Fatal("Figure 6b distance list changed")
	}
}

func TestCircuitUsesAllQubits(t *testing.T) {
	// Every qubit (data, measure, ancilla) must appear in the circuit —
	// otherwise the radiation fault surface would be understated.
	for _, c := range []*Code{mustRep(t, 5), mustXXZZ(t, 3, 3)} {
		touched := make([]bool, c.NumQubits())
		for _, op := range c.Circ.Ops {
			for _, q := range op.Qubits {
				touched[q] = true
			}
		}
		for q, ok := range touched {
			if !ok {
				t.Fatalf("%s: qubit %d never used", c.Name, q)
			}
		}
	}
}
