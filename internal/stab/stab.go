// Package stab implements an Aaronson–Gottesman stabilizer tableau
// simulator (arXiv:quant-ph/0406196). Every circuit in the radiation
// study — the repetition and XXZZ surface codes under Pauli depolarizing
// noise and reset faults — is a Clifford circuit, so stabilizer
// simulation reproduces the measurement statistics of a full state-vector
// simulator exactly, while scaling as O(n^2) per measurement instead of
// O(2^n) memory.
//
// The tableau stores n destabilizer rows, n stabilizer rows and one
// scratch row; each row is a Pauli string (bit-packed X and Z components)
// with a sign bit.
//
// In a circuit whose gates do not depend on measurement outcomes the X/Z
// bits never depend on an outcome either; only the signs do, and every
// sign is an affine GF(2) function of the random-measurement coins.
// Gates XOR a bit-determined constant into signs, rowsum XORs two signs
// and a bit-determined phase, a random measurement sets one sign to a
// fresh coin, and a reset's conditional X XORs the outcome into the
// signs of the rows with a Z on the qubit. The tableau's symbolic-sign
// mode (see Compile) carries that function instead of a drawn value.
package stab

import (
	"fmt"
	"math/bits"

	"radqec/internal/rng"
)

// Tableau is the stabilizer state of n qubits, initialised to |0...0>.
type Tableau struct {
	n     int
	words int
	// x[r] and z[r] are the X/Z component bit vectors of row r.
	// Rows 0..n-1 are destabilizers, n..2n-1 stabilizers, 2n scratch.
	x [][]uint64
	z [][]uint64
	r []uint8 // sign bit per row (0 => +1, 1 => -1)
	// dep is non-nil in symbolic-sign mode: row i's sign is r[i] XOR the
	// parity of the coins in the bitset dep[i], and a random measurement
	// issues the next coin instead of drawing one. Only rowsum, measure
	// and Reset touch it.
	dep   [][]uint64
	coins int // coins issued so far (symbolic-sign mode)
}

// New returns a tableau for n qubits in the all-zeros state.
func New(n int) *Tableau {
	if n <= 0 {
		panic("stab: qubit count must be positive")
	}
	words := (n + 63) / 64
	t := &Tableau{
		n:     n,
		words: words,
		x:     make([][]uint64, 2*n+1),
		z:     make([][]uint64, 2*n+1),
		r:     make([]uint8, 2*n+1),
	}
	backing := make([]uint64, (2*n+1)*words*2)
	for i := range t.x {
		t.x[i], backing = backing[:words], backing[words:]
		t.z[i], backing = backing[:words], backing[words:]
	}
	for q := 0; q < n; q++ {
		t.x[q][q/64] |= 1 << (q % 64)   // destabilizer q = X_q
		t.z[n+q][q/64] |= 1 << (q % 64) // stabilizer q   = Z_q
	}
	return t
}

// newSymbolic returns an all-zeros tableau in symbolic-sign mode with
// room for maxCoins coins.
func newSymbolic(n, maxCoins int) *Tableau {
	t := New(n)
	dw := (maxCoins + 63) / 64
	t.dep = make([][]uint64, 2*n+1)
	backing := make([]uint64, (2*n+1)*dw)
	for i := range t.dep {
		t.dep[i], backing = backing[:dw:dw], backing[dw:]
	}
	return t
}

// Reset returns the tableau to |0...0> without reallocating.
func (t *Tableau) ResetState() {
	for i := range t.x {
		for w := range t.x[i] {
			t.x[i][w] = 0
			t.z[i][w] = 0
		}
		t.r[i] = 0
	}
	for q := 0; q < t.n; q++ {
		t.x[q][q/64] |= 1 << (q % 64)
		t.z[t.n+q][q/64] |= 1 << (q % 64)
	}
}

// Clone returns a deep copy of the tableau.
func (t *Tableau) Clone() *Tableau {
	c := New(t.n)
	for i := range t.x {
		copy(c.x[i], t.x[i])
		copy(c.z[i], t.z[i])
	}
	copy(c.r, t.r)
	return c
}

func (t *Tableau) checkQ(q int) {
	if q < 0 || q >= t.n {
		panic(fmt.Sprintf("stab: qubit %d out of range [0,%d)", q, t.n))
	}
}

func (t *Tableau) getX(row, q int) uint64 { return (t.x[row][q/64] >> (q % 64)) & 1 }
func (t *Tableau) getZ(row, q int) uint64 { return (t.z[row][q/64] >> (q % 64)) & 1 }

// H applies a Hadamard to qubit q: X<->Z, sign flips when the row holds Y.
func (t *Tableau) H(q int) {
	t.checkQ(q)
	w, b := q/64, uint(q%64)
	for i := range t.x {
		xb := (t.x[i][w] >> b) & 1
		zb := (t.z[i][w] >> b) & 1
		t.r[i] ^= uint8(xb & zb)
		if xb != zb {
			t.x[i][w] ^= 1 << b
			t.z[i][w] ^= 1 << b
		}
	}
}

// S applies the phase gate to qubit q.
func (t *Tableau) S(q int) {
	t.checkQ(q)
	w, b := q/64, uint(q%64)
	for i := range t.x {
		xb := (t.x[i][w] >> b) & 1
		zb := (t.z[i][w] >> b) & 1
		t.r[i] ^= uint8(xb & zb)
		t.z[i][w] ^= xb << b
	}
}

// X applies Pauli-X to q; rows anti-commuting with X (those with a Z
// component on q) flip sign.
func (t *Tableau) X(q int) {
	t.checkQ(q)
	w, b := q/64, uint(q%64)
	for i := range t.x {
		t.r[i] ^= uint8((t.z[i][w] >> b) & 1)
	}
}

// Z applies Pauli-Z to q.
func (t *Tableau) Z(q int) {
	t.checkQ(q)
	w, b := q/64, uint(q%64)
	for i := range t.x {
		t.r[i] ^= uint8((t.x[i][w] >> b) & 1)
	}
}

// Y applies Pauli-Y to q.
func (t *Tableau) Y(q int) {
	t.checkQ(q)
	w, b := q/64, uint(q%64)
	for i := range t.x {
		t.r[i] ^= uint8(((t.x[i][w] ^ t.z[i][w]) >> b) & 1)
	}
}

// CNOT applies a controlled-X with the given control and target.
func (t *Tableau) CNOT(control, target int) {
	t.checkQ(control)
	t.checkQ(target)
	if control == target {
		panic("stab: CNOT with identical qubits")
	}
	cw, cb := control/64, uint(control%64)
	tw, tb := target/64, uint(target%64)
	for i := range t.x {
		xc := (t.x[i][cw] >> cb) & 1
		zc := (t.z[i][cw] >> cb) & 1
		xt := (t.x[i][tw] >> tb) & 1
		zt := (t.z[i][tw] >> tb) & 1
		t.r[i] ^= uint8(xc & zt & (xt ^ zc ^ 1))
		t.x[i][tw] ^= xc << tb
		t.z[i][cw] ^= zt << cb
	}
}

// CZ applies a controlled-Z between a and b (symmetric).
func (t *Tableau) CZ(a, b int) {
	t.H(b)
	t.CNOT(a, b)
	t.H(b)
}

// SWAP exchanges qubits a and b.
func (t *Tableau) SWAP(a, b int) {
	t.checkQ(a)
	t.checkQ(b)
	if a == b {
		return
	}
	aw, ab := a/64, uint(a%64)
	bw, bb := b/64, uint(b%64)
	for i := range t.x {
		xa := (t.x[i][aw] >> ab) & 1
		xb := (t.x[i][bw] >> bb) & 1
		if xa != xb {
			t.x[i][aw] ^= 1 << ab
			t.x[i][bw] ^= 1 << bb
		}
		za := (t.z[i][aw] >> ab) & 1
		zb := (t.z[i][bw] >> bb) & 1
		if za != zb {
			t.z[i][aw] ^= 1 << ab
			t.z[i][bw] ^= 1 << bb
		}
	}
}

// rowsum multiplies row i into row h (h <- h * i), maintaining signs.
// The phase is the Aaronson–Gottesman g function summed over the
// qubits, a word at a time: per word, one mask of the qubits that
// contribute +1 to the exponent of i and one of those that contribute
// -1, and a popcount of each.
func (t *Tableau) rowsum(h, i int) {
	sum := 0
	xi, zi, xh, zh := t.x[i], t.z[i], t.x[h], t.z[h]
	for w := range xi {
		x1, z1, x2, z2 := xi[w], zi[w], xh[w], zh[w]
		// Row i holds Y, X or Z; the factor from row h decides the sign:
		// Y·Z, X·Y and Z·X give +i, Y·X, X·Z and Z·Y give -i.
		y1, xo1, zo1 := x1&z1, x1&^z1, z1&^x1
		y2, xo2, zo2 := x2&z2, x2&^z2, z2&^x2
		pos := y1&zo2 | xo1&y2 | zo1&xo2
		neg := y1&xo2 | xo1&zo2 | zo1&y2
		sum += bits.OnesCount64(pos) - bits.OnesCount64(neg)
		xh[w] = x2 ^ x1
		zh[w] = z2 ^ z1
	}
	sum &= 3
	// Stabilizer (and scratch) rows always multiply commuting Paulis, so
	// their product phase is real. Destabilizer rows may pick up an
	// imaginary phase when multiplied by their paired stabilizer, but
	// destabilizer signs are never read by the algorithm, so any value
	// is acceptable there.
	if h >= t.n && sum&1 != 0 {
		panic("stab: rowsum produced imaginary phase; tableau corrupted")
	}
	// (2·r[h] + 2·r[i] + sum mod 4) / 2, which is linear in the signs.
	t.r[h] ^= uint8(sum >> 1)
	t.xorSign(h, i)
}

// xorSign XORs the sign of row src into that of row dst.
func (t *Tableau) xorSign(dst, src int) {
	t.r[dst] ^= t.r[src]
	if t.dep != nil {
		for w, d := range t.dep[src] {
			t.dep[dst][w] ^= d
		}
	}
}

// IsDeterministicZ reports whether a Z measurement of q has a
// predetermined outcome (no stabilizer anti-commutes with Z_q).
func (t *Tableau) IsDeterministicZ(q int) bool {
	t.checkQ(q)
	w, b := q/64, uint(q%64)
	for i := t.n; i < 2*t.n; i++ {
		if (t.x[i][w]>>b)&1 == 1 {
			return false
		}
	}
	return true
}

// MeasureZ measures qubit q in the computational basis and returns the
// outcome bit. Random outcomes draw from src.
func (t *Tableau) MeasureZ(q int, src *rng.Source) int {
	return int(t.r[t.measure(q, src)])
}

// measure measures qubit q and returns the row whose sign is the
// outcome: the collapsed stabilizer Z_q when the outcome is random, the
// scratch row when it is deterministic. A random outcome is a coin from
// src, or in symbolic-sign mode the next coin.
func (t *Tableau) measure(q int, src *rng.Source) int {
	t.checkQ(q)
	w, b := q/64, uint(q%64)
	// Find a stabilizer with an X component on q: outcome is random.
	p := -1
	for i := t.n; i < 2*t.n; i++ {
		if (t.x[i][w]>>b)&1 == 1 {
			p = i
			break
		}
	}
	if p >= 0 {
		for i := 0; i < 2*t.n; i++ {
			if i != p && (t.x[i][w]>>b)&1 == 1 {
				t.rowsum(i, p)
			}
		}
		// The destabilizer paired with p becomes the old stabilizer.
		copy(t.x[p-t.n], t.x[p])
		copy(t.z[p-t.n], t.z[p])
		t.r[p-t.n] = t.r[p]
		for ww := 0; ww < t.words; ww++ {
			t.x[p][ww] = 0
			t.z[p][ww] = 0
		}
		t.z[p][w] = 1 << b
		if t.dep != nil {
			copy(t.dep[p-t.n], t.dep[p])
			clear(t.dep[p])
			t.dep[p][t.coins/64] = 1 << (t.coins % 64)
			t.coins++
			t.r[p] = 0
			return p
		}
		t.r[p] = 0
		if src.Bool(0.5) {
			t.r[p] = 1
		}
		return p
	}
	// Deterministic: accumulate destabilizer products into scratch.
	scratch := 2 * t.n
	for ww := 0; ww < t.words; ww++ {
		t.x[scratch][ww] = 0
		t.z[scratch][ww] = 0
	}
	t.r[scratch] = 0
	if t.dep != nil {
		clear(t.dep[scratch])
	}
	for i := 0; i < t.n; i++ {
		if (t.x[i][w]>>b)&1 == 1 {
			t.rowsum(scratch, i+t.n)
		}
	}
	return scratch
}

// Reset forces qubit q to |0>: it measures q and corrects with X when
// the outcome is 1. This is the non-unitary radiation fault channel.
func (t *Tableau) Reset(q int, src *rng.Source) {
	row := t.measure(q, src)
	if t.dep == nil {
		if t.r[row] == 1 {
			t.X(q)
		}
		return
	}
	// The conditional X as a sign update: the outcome is XORed into the
	// sign of every row with a Z on q. The outcome row may be one of
	// them (Z_q itself after a collapse), so it goes last.
	w, b := q/64, uint(q%64)
	for i := range t.x {
		if i != row && (t.z[i][w]>>b)&1 == 1 {
			t.xorSign(i, row)
		}
	}
	if (t.z[row][w]>>b)&1 == 1 {
		t.r[row] = 0
		clear(t.dep[row])
	}
}

// ExpectationZ returns +1, -1 or 0 for the Z expectation value of q:
// +-1 when the measurement is deterministic, 0 when it is random.
func (t *Tableau) ExpectationZ(q int) int {
	if !t.IsDeterministicZ(q) {
		return 0
	}
	// MeasureZ's deterministic branch reads the generators, writes only
	// the scratch row and draws no coin, so it peeks at the outcome in
	// place: the state is undisturbed and nothing is allocated.
	if t.MeasureZ(q, nil) == 0 {
		return 1
	}
	return -1
}
