package stab

import (
	"testing"

	"radqec/internal/circuit"
)

// TestReferenceDeterminismFlags pins the per-measurement determinism
// flags on a circuit with a non-deterministic mid-circuit measurement:
// H makes the first M a coin, the collapse makes the re-measurement of
// the same qubit deterministic, and a fresh H re-opens the branch.
func TestReferenceDeterminismFlags(t *testing.T) {
	c := circuit.New(2, 4)
	c.H(0)
	c.Measure(0, 0) // superposed: fresh coin
	c.Measure(0, 1) // collapsed: deterministic, equals bit 0
	c.X(0)
	c.Measure(0, 2) // still deterministic, equals bit 0 flipped
	c.H(0)
	c.Measure(0, 3) // re-superposed: fresh coin again
	ref := RunReference(c, 7, nil)
	wantFlags := []bool{false, true, true, false}
	if len(ref.Record) != 4 || len(ref.Deterministic) != 4 {
		t.Fatalf("record %v flags %v", ref.Record, ref.Deterministic)
	}
	for k, want := range wantFlags {
		if ref.Deterministic[k] != want {
			t.Fatalf("measurement %d: deterministic=%v, want %v (flags %v)",
				k, ref.Deterministic[k], want, ref.Deterministic)
		}
	}
	if ref.Record[1] != ref.Record[0] {
		t.Fatalf("re-measurement diverged from collapse: %v", ref.Record)
	}
	if ref.Record[2] != ref.Record[0]^1 {
		t.Fatalf("X did not flip the deterministic outcome: %v", ref.Record)
	}
}

// TestReferenceMeasIndex pins the op-to-measurement mapping.
func TestReferenceMeasIndex(t *testing.T) {
	c := circuit.New(2, 2)
	c.X(0)
	c.Measure(0, 0)
	c.CNOT(0, 1)
	c.Measure(1, 1)
	ref := RunReference(c, 1, nil)
	want := []int{-1, 0, -1, 1}
	for i, w := range want {
		if ref.MeasIndex[i] != w {
			t.Fatalf("MeasIndex = %v, want %v", ref.MeasIndex, want)
		}
	}
	if ref.Record[0] != 1 || ref.Record[1] != 1 {
		t.Fatalf("X|0> record = %v", ref.Record)
	}
	if !ref.Deterministic[0] || !ref.Deterministic[1] {
		t.Fatalf("computational-basis flags = %v", ref.Deterministic)
	}
}

// TestReferenceObserveSeesEveryOp pins the observer contract: called
// once per non-barrier op, after the op has been applied.
func TestReferenceObserveSeesEveryOp(t *testing.T) {
	c := circuit.New(2, 1)
	c.H(0)
	c.Barrier()
	c.CNOT(0, 1)
	c.Measure(0, 0)
	var seen []int
	RunReference(c, 3, func(i int, tab *Tableau) {
		seen = append(seen, i)
		if tab.n != 2 {
			t.Fatalf("observer saw %d qubits", tab.n)
		}
	})
	want := []int{0, 2, 3} // barrier (op 1) skipped
	if len(seen) != len(want) {
		t.Fatalf("observed ops %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("observed ops %v, want %v", seen, want)
		}
	}
}

// TestAnticommutingStabilizer pins the branch operator on a Bell pair:
// after H+CNOT the stabilizers are XX and ZZ, so the generator
// anti-commuting with Z_0 is XX — X support {0,1}, empty Z support —
// and the correlated-collapse physics rides exactly on that support.
func TestAnticommutingStabilizer(t *testing.T) {
	tab := New(2)
	if _, _, ok := tab.AnticommutingStabilizer(0); ok {
		t.Fatal("|00> has no stabilizer anti-commuting with Z_0")
	}
	tab.H(0)
	tab.CNOT(0, 1)
	xs, zs, ok := tab.AnticommutingStabilizer(0)
	if !ok {
		t.Fatal("Bell state: Z_0 measurement should be non-deterministic")
	}
	if len(xs) != 2 || xs[0] != 0 || xs[1] != 1 || len(zs) != 0 {
		t.Fatalf("branch operator xs=%v zs=%v, want XX", xs, zs)
	}
	// Consistency: the branch operator must anti-commute with Z_q, i.e.
	// have X support on q.
	if !tab.IsDeterministicZ(0) {
		found := false
		for _, q := range xs {
			if q == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("branch operator %v misses the measured qubit", xs)
		}
	}
}
