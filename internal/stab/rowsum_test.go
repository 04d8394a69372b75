package stab

import (
	"testing"

	"radqec/internal/rng"
)

// phaseExponent returns the exponent of i (mod 4 contribution) from
// multiplying the single-qubit Paulis (x1,z1)·(x2,z2), per the
// Aaronson–Gottesman g function. It is the per-qubit definition the
// word-parallel rowsum is checked against.
func phaseExponent(x1, z1, x2, z2 uint64) int {
	switch {
	case x1 == 0 && z1 == 0:
		return 0
	case x1 == 1 && z1 == 1: // Y
		return int(z2) - int(x2)
	case x1 == 1 && z1 == 0: // X
		return int(z2) * (2*int(x2) - 1)
	default: // Z
		return int(x2) * (1 - 2*int(z2))
	}
}

// referenceRowsumSign is Aaronson–Gottesman's rowsum sign, one qubit at
// a time: the sign bit of row h after h <- h * i.
func referenceRowsumSign(t *Tableau, h, i int) uint8 {
	sum := 2*int(t.r[h]) + 2*int(t.r[i])
	for q := 0; q < t.n; q++ {
		sum += phaseExponent(t.getX(i, q), t.getZ(i, q), t.getX(h, q), t.getZ(h, q))
	}
	return uint8((((sum % 4) + 4) % 4) / 2)
}

// TestRowsumWordParallelMatchesPerQubit checks the popcount phase
// against the per-qubit sum on random row pairs, at widths on both
// sides of a word boundary. The product lands in row 0, a destabilizer
// row, the only kind whose product may carry an imaginary phase, so
// arbitrary (non-commuting) Paulis are legal and the rounding of odd
// exponents is exercised too.
func TestRowsumWordParallelMatchesPerQubit(t *testing.T) {
	src := rng.New(1)
	for _, n := range []int{1, 63, 64, 65, 130} {
		tab := New(n)
		for trial := 0; trial < 500; trial++ {
			for _, row := range []int{0, 1} {
				for w := 0; w < tab.words; w++ {
					tab.x[row][w], tab.z[row][w] = src.Uint64(), src.Uint64()
				}
				if n%64 != 0 {
					mask := uint64(1)<<(n%64) - 1
					tab.x[row][(n-1)/64] &= mask
					tab.z[row][(n-1)/64] &= mask
				}
				tab.r[row] = uint8(src.Uint64() & 1)
			}
			wantX := make([]uint64, tab.words)
			wantZ := make([]uint64, tab.words)
			for w := range wantX {
				wantX[w] = tab.x[0][w] ^ tab.x[1][w]
				wantZ[w] = tab.z[0][w] ^ tab.z[1][w]
			}
			want := referenceRowsumSign(tab, 0, 1)
			tab.rowsum(0, 1)
			if tab.r[0] != want {
				t.Fatalf("n=%d trial %d: sign %d, per-qubit sum gives %d", n, trial, tab.r[0], want)
			}
			for w := range wantX {
				if tab.x[0][w] != wantX[w] || tab.z[0][w] != wantZ[w] {
					t.Fatalf("n=%d trial %d: row bits are not the XOR of the operands", n, trial)
				}
			}
		}
	}
}
