package stab

import (
	"math/bits"
	"sync/atomic"

	"radqec/internal/circuit"
	"radqec/internal/rng"
)

// Compiled is the noiseless reference of a circuit with the measurement
// coins left symbolic. Which measurements are random, which (op, qubit)
// sites hold a superposed qubit and the branch operators there are
// facts of the circuit; the measurement record and the ±1 Z-values of
// the other sites are affine GF(2) functions of the coins (see the
// package comment), which a seed merely evaluates. One Compile
// therefore stands for RunReference at every seed: Reference and SiteZ
// at Coins(seed) return what RunReference(circ, seed, observe) records
// and what its observer reads with ExpectationZ, without a tableau.
// A Compiled is immutable once built and safe for concurrent use.
type Compiled struct {
	// NumCoins is the number of random measurements (those of resets
	// included) in one execution.
	NumCoins int
	// HasH reports whether the circuit contains a Hadamard. Only H
	// moves Z frame bits into the X plane, so without one the frame
	// engines' collapse-point Z coins are unobservable and skipped.
	HasH bool
	// MeasIndex and Deterministic are Reference's fields of the same
	// name; every Reference this Compiled returns shares them.
	MeasIndex     []int
	Deterministic []bool
	// SiteBase[i] is the index of op i's first site: the j-th qubit of
	// op i is site SiteBase[i]+j, numbered in op order over the
	// NumSites (op, qubit) pairs of the non-barrier ops.
	SiteBase []int
	NumSites int

	meas forms // outcome of measurement k
	site forms // Z-value bit of site s (0 => +1), where branch[s] is nil
	// branch[s] is the branch operator of site s, nil where the qubit
	// is a Z eigenstate right after the op.
	branch []*Branch
}

// Branch is the support of one stabilizer generator anti-commuting with
// Z on a superposed site, as AnticommutingStabilizer returns it.
type Branch struct {
	Xs, Zs []int
}

// forms is a flat list of affine GF(2) functions of the coins: function
// k is konst[k] XOR the parity of the coins in the bitset
// dep[k*words:(k+1)*words].
type forms struct {
	konst []uint8
	dep   []uint64
	words int
}

// add appends the sign of the tableau's row as the next function.
func (f *forms) add(t *Tableau, row int) {
	f.konst = append(f.konst, t.r[row])
	f.dep = append(f.dep, t.dep[row]...)
}

// addZero appends the constant 0, a placeholder that keeps the list
// aligned where no function applies.
func (f *forms) addZero() {
	f.konst = append(f.konst, 0)
	f.dep = append(f.dep, make([]uint64, f.words)...)
}

// shrink drops the dependency words past the first words of every
// function; the caller knows them to be zero.
func (f *forms) shrink(words int) {
	dep := make([]uint64, 0, len(f.konst)*words)
	for k := range f.konst {
		dep = append(dep, f.dep[k*f.words:k*f.words+words]...)
	}
	f.dep, f.words = dep, words
}

func (f *forms) eval(k int, coins []uint64) int {
	var par uint64
	for w, d := range f.dep[k*f.words : (k+1)*f.words] {
		par ^= d & coins[w]
	}
	return int(f.konst[k]) ^ bits.OnesCount64(par)&1
}

// compiles counts Compile calls; the lifetime tests read it to show the
// per-circuit cache compiles once per circuit.
var compiles atomic.Int64

// Compile executes the circuit once on a symbolic-sign tableau and
// records the outcome of every measurement and the Z-value or branch
// operator of every (op, qubit) site. It visits every site, not only
// those one radiation event can strike, because the result serves every
// event and seed the circuit is run under; CompiledOf caches it.
func Compile(circ *circuit.Circuit) *Compiled {
	compiles.Add(1)
	n := circ.NumQubits
	if n < 1 {
		n = 1
	}
	c := &Compiled{
		MeasIndex: make([]int, len(circ.Ops)),
		SiteBase:  make([]int, len(circ.Ops)),
	}
	// Every measurement and reset issues at most one coin.
	maxCoins := 0
	for _, op := range circ.Ops {
		if op.Kind == circuit.KindMeasure || op.Kind == circuit.KindReset {
			maxCoins++
		}
	}
	tab := newSymbolic(n, maxCoins)
	c.meas.words = len(tab.dep[0])
	c.site.words = c.meas.words
	for i, op := range circ.Ops {
		c.MeasIndex[i] = -1
		c.SiteBase[i] = len(c.branch)
		switch op.Kind {
		case circuit.KindMeasure:
			c.MeasIndex[i] = len(c.Deterministic)
			c.Deterministic = append(c.Deterministic, tab.IsDeterministicZ(op.Qubits[0]))
			c.meas.add(tab, tab.measure(op.Qubits[0], nil))
		case circuit.KindReset:
			tab.Reset(op.Qubits[0], nil)
		case circuit.KindBarrier:
			continue
		default:
			c.HasH = c.HasH || op.Kind == circuit.KindH
			applyGate(tab, op)
		}
		for _, q := range op.Qubits {
			if xs, zs, ok := tab.AnticommutingStabilizer(q); ok {
				c.branch = append(c.branch, &Branch{Xs: xs, Zs: zs})
				c.site.addZero()
				continue
			}
			c.branch = append(c.branch, nil)
			c.site.add(tab, tab.measure(q, nil))
		}
	}
	c.NumSites = len(c.branch)
	c.NumCoins = tab.coins
	words := (c.NumCoins + 63) / 64
	c.meas.shrink(words)
	c.site.shrink(words)
	return c
}

// CompiledOf returns the circuit's compiled reference, compiling it on
// first use. It lives in the circuit's own slot, so it is built once
// however many runners share the circuit and is collected with it.
func CompiledOf(circ *circuit.Circuit) *Compiled {
	return circ.Compiled(compileAny).(*Compiled)
}

func compileAny(circ *circuit.Circuit) any { return Compile(circ) }

// Coins draws the coins of one execution from the stream seeded by
// seed, in RunReference's order: one Bool(0.5) per random measurement,
// those of resets included, in op order.
func (c *Compiled) Coins(seed uint64) []uint64 {
	var src rng.Source
	src.Reseed(seed)
	coins := make([]uint64, c.meas.words)
	for k := 0; k < c.NumCoins; k++ {
		if src.Bool(0.5) {
			coins[k/64] |= 1 << (k % 64)
		}
	}
	return coins
}

// Reference returns the reference execution whose coins are coins.
func (c *Compiled) Reference(coins []uint64) *Reference {
	ref := &Reference{
		Record:        make([]int, len(c.Deterministic)),
		Deterministic: c.Deterministic,
		MeasIndex:     c.MeasIndex,
	}
	for k := range ref.Record {
		ref.Record[k] = c.meas.eval(k, coins)
	}
	return ref
}

// SiteZ returns the Z expectation value (+1, -1, or 0 for superposed)
// of the site's qubit right after its op, in the execution whose coins
// are coins.
func (c *Compiled) SiteZ(site int, coins []uint64) int {
	if c.branch[site] != nil {
		return 0
	}
	return 1 - 2*c.site.eval(site, coins)
}

// Branch returns the branch operator of a superposed site, nil where
// SiteZ is ±1.
func (c *Compiled) Branch(site int) *Branch { return c.branch[site] }
