package stab

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"radqec/internal/rng"
)

func TestInitialStateAllZero(t *testing.T) {
	tab := New(5)
	src := rng.New(1)
	for q := 0; q < 5; q++ {
		if !tab.IsDeterministicZ(q) {
			t.Fatalf("fresh qubit %d not deterministic", q)
		}
		if got := tab.MeasureZ(q, src); got != 0 {
			t.Fatalf("fresh qubit %d measured %d", q, got)
		}
	}
}

func TestNewPanicsOnZeroQubits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestXFlips(t *testing.T) {
	tab := New(2)
	src := rng.New(2)
	tab.X(0)
	if got := tab.MeasureZ(0, src); got != 1 {
		t.Fatalf("X|0> measured %d", got)
	}
	if got := tab.MeasureZ(1, src); got != 0 {
		t.Fatalf("untouched qubit measured %d", got)
	}
}

func TestDoubleXIdentity(t *testing.T) {
	tab := New(1)
	tab.X(0)
	tab.X(0)
	if got := tab.MeasureZ(0, rng.New(3)); got != 0 {
		t.Fatalf("XX|0> measured %d", got)
	}
}

func TestZOnZeroIsIdentity(t *testing.T) {
	tab := New(1)
	tab.Z(0)
	if got := tab.MeasureZ(0, rng.New(4)); got != 0 {
		t.Fatalf("Z|0> measured %d", got)
	}
}

func TestYFlipsBit(t *testing.T) {
	tab := New(1)
	tab.Y(0)
	if got := tab.MeasureZ(0, rng.New(5)); got != 1 {
		t.Fatalf("Y|0> measured %d", got)
	}
}

func TestHadamardRandomness(t *testing.T) {
	src := rng.New(6)
	ones := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		tab := New(1)
		tab.H(0)
		if !tab.IsDeterministicZ(0) == false {
			t.Fatal("H|0> should be a random measurement")
		}
		ones += tab.MeasureZ(0, src)
	}
	rate := float64(ones) / trials
	if math.Abs(rate-0.5) > 0.02 {
		t.Fatalf("H|0> one-rate = %v, want ~0.5", rate)
	}
}

func TestHHIdentity(t *testing.T) {
	tab := New(1)
	tab.H(0)
	tab.H(0)
	if !tab.IsDeterministicZ(0) {
		t.Fatal("HH|0> should be deterministic")
	}
	if got := tab.MeasureZ(0, rng.New(7)); got != 0 {
		t.Fatalf("HH|0> measured %d", got)
	}
}

func TestSSEqualsZ(t *testing.T) {
	// S·S = Z. Verify on the |+> state: H then SS then H gives X
	// conjugated... simplest check: HSSH|0> = HZH|0> = X|0> = |1>.
	tab := New(1)
	tab.H(0)
	tab.S(0)
	tab.S(0)
	tab.H(0)
	if got := tab.MeasureZ(0, rng.New(8)); got != 1 {
		t.Fatalf("HSSH|0> measured %d, want 1", got)
	}
}

func TestBellPairCorrelations(t *testing.T) {
	src := rng.New(9)
	ones := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		tab := New(2)
		tab.H(0)
		tab.CNOT(0, 1)
		a := tab.MeasureZ(0, src)
		b := tab.MeasureZ(1, src)
		if a != b {
			t.Fatalf("Bell pair decorrelated: %d vs %d", a, b)
		}
		ones += a
	}
	rate := float64(ones) / trials
	if math.Abs(rate-0.5) > 0.03 {
		t.Fatalf("Bell one-rate = %v", rate)
	}
}

func TestGHZCorrelations(t *testing.T) {
	src := rng.New(10)
	for i := 0; i < 1000; i++ {
		tab := New(5)
		tab.H(0)
		for q := 0; q+1 < 5; q++ {
			tab.CNOT(q, q+1)
		}
		first := tab.MeasureZ(0, src)
		for q := 1; q < 5; q++ {
			if got := tab.MeasureZ(q, src); got != first {
				t.Fatalf("GHZ qubit %d = %d, first = %d", q, got, first)
			}
		}
	}
}

func TestCNOTControlTarget(t *testing.T) {
	src := rng.New(11)
	tab := New(2)
	tab.X(0)
	tab.CNOT(0, 1)
	if got := tab.MeasureZ(1, src); got != 1 {
		t.Fatalf("CNOT did not fire with control=1 (got %d)", got)
	}
	tab2 := New(2)
	tab2.CNOT(0, 1)
	if got := tab2.MeasureZ(1, src); got != 0 {
		t.Fatalf("CNOT fired with control=0 (got %d)", got)
	}
}

func TestCNOTSameQubitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).CNOT(1, 1)
}

func TestCZPhaseKickback(t *testing.T) {
	// CZ between |+>|1> flips the phase: H on the first qubit afterwards
	// yields |1>.
	tab := New(2)
	tab.H(0)
	tab.X(1)
	tab.CZ(0, 1)
	tab.H(0)
	if got := tab.MeasureZ(0, rng.New(12)); got != 1 {
		t.Fatalf("CZ phase kickback missing (got %d)", got)
	}
}

func TestCZSymmetric(t *testing.T) {
	a := New(2)
	a.H(0)
	a.X(1)
	a.CZ(0, 1)
	a.H(0)
	b := New(2)
	b.H(0)
	b.X(1)
	b.CZ(1, 0)
	b.H(0)
	src1, src2 := rng.New(13), rng.New(13)
	if a.MeasureZ(0, src1) != b.MeasureZ(0, src2) {
		t.Fatal("CZ not symmetric")
	}
}

func TestSWAP(t *testing.T) {
	src := rng.New(14)
	tab := New(3)
	tab.X(0)
	tab.SWAP(0, 2)
	if got := tab.MeasureZ(0, src); got != 0 {
		t.Fatalf("qubit 0 after swap = %d", got)
	}
	if got := tab.MeasureZ(2, src); got != 1 {
		t.Fatalf("qubit 2 after swap = %d", got)
	}
}

func TestSWAPSelfIsNoop(t *testing.T) {
	tab := New(2)
	tab.X(0)
	tab.SWAP(0, 0)
	if got := tab.MeasureZ(0, rng.New(15)); got != 1 {
		t.Fatal("SWAP(q,q) disturbed state")
	}
}

func TestMeasurementCollapses(t *testing.T) {
	src := rng.New(16)
	for i := 0; i < 200; i++ {
		tab := New(1)
		tab.H(0)
		first := tab.MeasureZ(0, src)
		for k := 0; k < 5; k++ {
			if got := tab.MeasureZ(0, src); got != first {
				t.Fatal("repeated measurement changed outcome")
			}
		}
	}
}

func TestResetFromOne(t *testing.T) {
	src := rng.New(17)
	tab := New(1)
	tab.X(0)
	tab.Reset(0, src)
	if got := tab.MeasureZ(0, src); got != 0 {
		t.Fatalf("reset |1> measured %d", got)
	}
}

func TestResetFromSuperposition(t *testing.T) {
	src := rng.New(18)
	for i := 0; i < 200; i++ {
		tab := New(1)
		tab.H(0)
		tab.Reset(0, src)
		if got := tab.MeasureZ(0, src); got != 0 {
			t.Fatalf("reset |+> measured %d", got)
		}
	}
}

func TestResetBreaksEntanglement(t *testing.T) {
	// Resetting one half of a Bell pair leaves the partner maximally
	// mixed: both outcomes must appear over many trials.
	src := rng.New(19)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		tab := New(2)
		tab.H(0)
		tab.CNOT(0, 1)
		tab.Reset(0, src)
		if got := tab.MeasureZ(0, src); got != 0 {
			t.Fatal("reset qubit not |0>")
		}
		seen[tab.MeasureZ(1, src)] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("partner of reset qubit not mixed: %v", seen)
	}
}

func TestExpectationZ(t *testing.T) {
	tab := New(2)
	tab.X(1)
	if got := tab.ExpectationZ(0); got != 1 {
		t.Fatalf("<Z0> = %d, want +1", got)
	}
	if got := tab.ExpectationZ(1); got != -1 {
		t.Fatalf("<Z1> = %d, want -1", got)
	}
	tab.H(0)
	if got := tab.ExpectationZ(0); got != 0 {
		t.Fatalf("<Z0> after H = %d, want 0", got)
	}
}

func TestExpectationZDoesNotDisturb(t *testing.T) {
	tab := New(1)
	tab.H(0)
	_ = tab.ExpectationZ(0)
	if tab.IsDeterministicZ(0) {
		t.Fatal("ExpectationZ collapsed the state")
	}
}

// TestExpectationZInPlace: ExpectationZ peeks in place, so on random
// Clifford states (some qubits collapsed by measurement, one- and
// two-word tableaus) it must agree with measuring a clone, leave every
// stabilizer generator as it was, and allocate nothing.
func TestExpectationZInPlace(t *testing.T) {
	for _, n := range []int{6, 70} {
		src := rng.New(uint64(n))
		for trial := 0; trial < 40; trial++ {
			tab := New(n)
			applyRandom(tab, src, n, 8*n)
			for m := 0; m < n/3; m++ {
				tab.MeasureZ(src.Intn(n), src)
			}
			applyRandom(tab, src, n, n)
			before := tab.Clone()
			for q := 0; q < n; q++ {
				want := 0
				if tab.IsDeterministicZ(q) {
					want = 1 - 2*tab.Clone().MeasureZ(q, rng.New(0))
				}
				if got := tab.ExpectationZ(q); got != want {
					t.Fatalf("n=%d trial %d: <Z%d> = %d, clone says %d", n, trial, q, got, want)
				}
			}
			for i := n; i < 2*n; i++ {
				if before.r[i] != tab.r[i] || !slices.Equal(before.x[i], tab.x[i]) || !slices.Equal(before.z[i], tab.z[i]) {
					t.Fatalf("n=%d trial %d: generator %d moved", n, trial, i-n)
				}
			}
			if allocs := testing.AllocsPerRun(5, func() {
				for q := 0; q < n; q++ {
					tab.ExpectationZ(q)
				}
			}); allocs != 0 {
				t.Fatalf("ExpectationZ allocated %v times per %d-qubit sweep", allocs, n)
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tab := New(2)
	tab.H(0)
	cp := tab.Clone()
	cp.X(1)
	src := rng.New(20)
	if got := tab.MeasureZ(1, src); got != 0 {
		t.Fatal("clone shares state")
	}
}

func TestResetStateRestoresZero(t *testing.T) {
	tab := New(3)
	src := rng.New(21)
	tab.H(0)
	tab.CNOT(0, 1)
	tab.X(2)
	tab.ResetState()
	for q := 0; q < 3; q++ {
		if got := tab.MeasureZ(q, src); got != 0 {
			t.Fatalf("qubit %d after ResetState = %d", q, got)
		}
	}
}

// gateInverse maps each single-qubit test gate to its inverse sequence.
func applyRandom(tab *Tableau, src *rng.Source, n, length int) (gates []int, qubits [][2]int) {
	for i := 0; i < length; i++ {
		g := src.Intn(5)
		q := src.Intn(n)
		q2 := (q + 1 + src.Intn(n-1)) % n
		gates = append(gates, g)
		qubits = append(qubits, [2]int{q, q2})
		switch g {
		case 0:
			tab.H(q)
		case 1:
			tab.S(q)
		case 2:
			tab.CNOT(q, q2)
		case 3:
			tab.X(q)
		case 4:
			tab.Z(q)
		}
	}
	return gates, qubits
}

func TestRandomCliffordInverseProperty(t *testing.T) {
	// U followed by U^{-1} must return |0..0> exactly. This exercises
	// every gate rule and the sign bookkeeping of the tableau.
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		const n, length = 6, 60
		tab := New(n)
		gates, qubits := applyRandom(tab, src, n, length)
		for i := length - 1; i >= 0; i-- {
			q, q2 := qubits[i][0], qubits[i][1]
			switch gates[i] {
			case 0:
				tab.H(q)
			case 1: // S^{-1} = SSS
				tab.S(q)
				tab.S(q)
				tab.S(q)
			case 2:
				tab.CNOT(q, q2)
			case 3:
				tab.X(q)
			case 4:
				tab.Z(q)
			}
		}
		msrc := rng.New(seed + 1)
		for q := 0; q < n; q++ {
			if !tab.IsDeterministicZ(q) || tab.MeasureZ(q, msrc) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSWAPEqualsThreeCNOTs(t *testing.T) {
	prop := func(seed uint64) bool {
		src := rng.New(seed)
		a := New(4)
		applyRandom(a, src, 4, 20)
		b := a.Clone()
		a.SWAP(1, 2)
		b.CNOT(1, 2)
		b.CNOT(2, 1)
		b.CNOT(1, 2)
		// Compare via deterministic measurements of a fixed random
		// follow-up circuit on identical RNG streams.
		s1, s2 := rng.New(seed+7), rng.New(seed+7)
		for q := 0; q < 4; q++ {
			if a.MeasureZ(q, s1) != b.MeasureZ(q, s2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWideTableauAcrossWordBoundary(t *testing.T) {
	// 70 qubits spans two 64-bit words; exercise gates straddling the
	// boundary.
	src := rng.New(22)
	tab := New(70)
	tab.X(63)
	tab.CNOT(63, 64)
	tab.SWAP(64, 69)
	if got := tab.MeasureZ(69, src); got != 1 {
		t.Fatalf("cross-word propagation failed: %d", got)
	}
	if got := tab.MeasureZ(64, src); got != 0 {
		t.Fatalf("swap source not cleared: %d", got)
	}
}

func BenchmarkCNOT(b *testing.B) {
	tab := New(31)
	for i := 0; i < b.N; i++ {
		tab.CNOT(i%30, 30)
	}
}

func BenchmarkMeasure(b *testing.B) {
	tab := New(31)
	src := rng.New(1)
	tab.H(0)
	for q := 0; q+1 < 31; q++ {
		tab.CNOT(q, q+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.MeasureZ(i%31, src)
	}
}
