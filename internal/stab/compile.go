package stab

import (
	"math/bits"
	"slices"
	"sync"
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
//
// A struck Compiled (Compile with a saturated set) is the reference of
// the circuit with each saturated qubit reset after every op touching
// it: a radiation event that fires with certainty is part of the
// noiseless execution, not noise. It numbers sites and ops as the
// unstruck one does; its record, determinism flags, Z-values and coins
// follow the struck execution (each struck reset of a superposed qubit
// is a coin like any other), and its saturated sites read +1 with no
// branch operator.
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
	site forms // Z-value bit of site s (0 => +1), where s has no branch
	// span[s] locates the branch operator of site s in supp: its X
	// support is supp[x:z], its Z support supp[z:end]; x is -1 where the
	// qubit is a Z eigenstate right after the op. One flat slice, not an
	// object per site: a figure keeps dozens of struck references of
	// one circuit.
	span []branchSpan
	supp []int32
	// superposed[q] reports whether any site of qubit q holds a
	// superposed qubit; nil on struck references, which StruckOf never
	// asks.
	superposed []bool
}

type branchSpan struct{ x, z, end int32 }

// Branch is the support of one stabilizer generator anti-commuting with
// Z on a superposed site (see anticommutingRow).
type Branch struct {
	Xs, Zs []int32
}

// forms is a flat list of affine GF(2) functions of the coins: function
// k is konst[k] XOR the parity of the coins in the bitset
// dep[k*words:(k+1)*words]. words is the width of the widest coin row
// added, so a list that depends on no coin holds no dependency words.
type forms struct {
	konst []uint8
	dep   []uint64
	words int
}

// reserve sizes the list for n functions.
func (f *forms) reserve(n int) {
	f.konst = make([]uint8, 0, n)
}

// add appends the sign of the tableau's row as the next function.
func (f *forms) add(t *Tableau, row int) {
	if w := len(t.dep[row]); w > f.words {
		f.widen(w)
	}
	f.konst = append(f.konst, t.r[row])
	f.dep = append(f.dep, t.dep[row]...)
}

// addZero appends the constant 0, a placeholder that keeps the list
// aligned where no function applies.
func (f *forms) addZero() {
	f.konst = append(f.konst, 0)
	f.dep = append(f.dep, make([]uint64, f.words)...)
}

// widen pads every function to words dependency words, sizing the list
// for as many functions as reserve did.
func (f *forms) widen(words int) {
	dep := make([]uint64, len(f.konst)*words, cap(f.konst)*words)
	for k := range f.konst {
		copy(dep[k*words:], f.dep[k*f.words:(k+1)*f.words])
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
// per-circuit cache compiles once per circuit and once per struck set.
var compiles atomic.Int64

// Compile executes the circuit once on a symbolic-sign tableau and
// records the outcome of every measurement and the Z-value or branch
// operator of every (op, qubit) site. It visits every site, not only
// those one radiation event can strike, because the result serves every
// event and seed the circuit is run under; CompiledOf caches it.
//
// sat, when non-nil, marks saturated qubits (len(sat) >= NumQubits): each
// is reset after every non-barrier op that touches it, before that op's
// sites are read, as the tableau engine does on every shot when a strike
// fires with certainty. The resets add coins, not sites; StruckOf caches
// these per set.
func Compile(circ *circuit.Circuit, sat []bool) *Compiled { return compile(circ, sat, nil) }

// compile is Compile; a non-nil base is the circuit's unstruck
// reference, whose op mapping (MeasIndex, SiteBase) every reference of
// the circuit shares, so a struck compile takes it instead of building
// a copy, and leaves superposed nil.
func compile(circ *circuit.Circuit, sat []bool, base *Compiled) *Compiled {
	compiles.Add(1)
	n := circ.NumQubits
	if n < 1 {
		n = 1
	}
	c := &Compiled{}
	if base != nil {
		c.MeasIndex, c.SiteBase = base.MeasIndex, base.SiteBase
	} else {
		c.MeasIndex = make([]int, len(circ.Ops))
		c.SiteBase = make([]int, len(circ.Ops))
		c.superposed = make([]bool, n)
	}
	struck := func(q int) bool { return sat != nil && sat[q] }
	sites, measures := 0, 0
	for _, op := range circ.Ops {
		if op.Kind == circuit.KindMeasure {
			measures++
		}
		if op.Kind != circuit.KindBarrier {
			sites += len(op.Qubits)
		}
	}
	tab := newSymbolic(n)
	c.span = make([]branchSpan, 0, sites)
	// Supports run about one entry per site on the figures' circuits;
	// twice that rarely grows, and the clone below trims it.
	c.supp = make([]int32, 0, 2*sites)
	c.Deterministic = make([]bool, 0, measures)
	c.meas.reserve(measures)
	c.site.reserve(sites)
	for i, op := range circ.Ops {
		if base == nil {
			c.MeasIndex[i] = -1
			c.SiteBase[i] = len(c.span)
		}
		switch op.Kind {
		case circuit.KindMeasure:
			if base == nil {
				c.MeasIndex[i] = len(c.Deterministic)
			}
			c.Deterministic = append(c.Deterministic, tab.IsDeterministicZ(op.Qubits[0]))
			c.meas.add(tab, tab.measure(op.Qubits[0], nil))
		case circuit.KindReset:
			tab.Reset(op.Qubits[0], nil)
		case circuit.KindBarrier:
			continue
		default:
			c.HasH = c.HasH || op.Kind == circuit.KindH
			tab.Apply(op)
		}
		for _, q := range op.Qubits {
			if struck(q) {
				tab.Reset(q, nil)
			}
		}
		for _, q := range op.Qubits {
			if row := tab.anticommutingRow(q); row >= 0 {
				sp := branchSpan{x: int32(len(c.supp))}
				for p := 0; p < tab.n; p++ {
					if tab.getX(row, p) == 1 {
						c.supp = append(c.supp, int32(p))
					}
				}
				sp.z = int32(len(c.supp))
				for p := 0; p < tab.n; p++ {
					if tab.getZ(row, p) == 1 {
						c.supp = append(c.supp, int32(p))
					}
				}
				sp.end = int32(len(c.supp))
				c.span = append(c.span, sp)
				c.site.addZero()
				if c.superposed != nil {
					c.superposed[q] = true
				}
				continue
			}
			c.span = append(c.span, branchSpan{x: -1})
			c.site.add(tab, tab.measure(q, nil))
		}
	}
	c.NumSites = len(c.span)
	c.supp = slices.Clone(c.supp)
	c.NumCoins = tab.coins
	return c
}

// maxStruck bounds the struck references one circuit keeps, oldest out
// first. A figure asks for one set per root (fig6's decoded and raw
// points, fig5's eight rates and fig7's spreading reference share it)
// and for fig7's 60 sampled erasure sets once each, so what eviction
// drops is not asked for again within a figure; the bound caps what a
// long-lived process holds when new seeds sample new sets.
const maxStruck = 64

// compiledSet is what a circuit's Compiled slot holds: the unstruck
// reference, and struck ones memoised by saturated-set bitmask.
type compiledSet struct {
	base *Compiled
	mu   sync.Mutex
	// struck maps a set's bitmask to its entry; order lists the keys
	// oldest first, and the oldest is dropped past maxStruck.
	struck map[string]*struckEntry
	order  []string
}

// struckEntry compiles its set once, however many runners ask together.
type struckEntry struct {
	once sync.Once
	comp *Compiled
}

// CompiledOf returns the circuit's compiled reference, compiling it on
// first use. It lives in the circuit's own slot, so it is built once
// however many runners share the circuit and is collected with it.
func CompiledOf(circ *circuit.Circuit) *Compiled { return setOf(circ).base }

func setOf(circ *circuit.Circuit) *compiledSet {
	return circ.Compiled(compileAny).(*compiledSet)
}

func compileAny(circ *circuit.Circuit) any {
	return &compiledSet{base: Compile(circ, nil), struck: map[string]*struckEntry{}}
}

// StruckOf returns the compiled reference of the circuit under a strike
// whose saturated qubits are sat (see Compile; len(sat) is NumQubits). Where no saturated
// qubit has a superposed site in the unstruck reference, that reference
// is already exact for the strike (a reset of a Z eigenstate is a
// Pauli frame update) and is returned as it is; otherwise the struck
// reference is compiled once per set and kept next to it in the
// circuit's slot.
func StruckOf(circ *circuit.Circuit, sat []bool) *Compiled {
	set := setOf(circ)
	matters := false
	for q, s := range sat {
		if s && set.base.superposed[q] {
			matters = true
			break
		}
	}
	if !matters {
		return set.base
	}
	key := make([]byte, (len(sat)+7)/8)
	for q, s := range sat {
		if s {
			key[q/8] |= 1 << (q % 8)
		}
	}
	set.mu.Lock()
	e, ok := set.struck[string(key)]
	if !ok {
		e = &struckEntry{}
		set.struck[string(key)] = e
		set.order = append(set.order, string(key))
		if len(set.order) > maxStruck {
			delete(set.struck, set.order[0])
			set.order = set.order[1:]
		}
	}
	set.mu.Unlock()
	e.once.Do(func() { e.comp = compile(circ, sat, set.base) })
	return e.comp
}

// Coins draws the coins of one execution from the stream seeded by
// seed, in RunReference's order: one Bool(0.5) per random measurement,
// those of resets included, in op order.
func (c *Compiled) Coins(seed uint64) []uint64 {
	var src rng.Source
	src.Reseed(seed)
	coins := make([]uint64, (c.NumCoins+63)/64)
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
	if c.span[site].x >= 0 {
		return 0
	}
	return 1 - 2*c.site.eval(site, coins)
}

// Branch returns the branch operator of a superposed site, and false
// where SiteZ is ±1. Its supports alias the Compiled's: read only.
func (c *Compiled) Branch(site int) (Branch, bool) {
	sp := c.span[site]
	if sp.x < 0 {
		return Branch{}, false
	}
	return Branch{Xs: c.supp[sp.x:sp.z:sp.z], Zs: c.supp[sp.z:sp.end:sp.end]}, true
}
