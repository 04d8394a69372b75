package stab_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"radqec/internal/arch"
	"radqec/internal/circuit"
	"radqec/internal/exp"
	"radqec/internal/frame"
	"radqec/internal/noise"
	"radqec/internal/qec"
	"radqec/internal/rng"
	"radqec/internal/stab"
)

// checkCompiledMatchesRun compares the compiled reference evaluated at
// each seed with a concrete tableau run at that seed: the record, the
// determinism flags, the op mapping, and at every (op, qubit) site the
// Z expectation and, where superposed, the branch operator's supports.
func checkCompiledMatchesRun(t testing.TB, circ *circuit.Circuit, seeds ...uint64) {
	t.Helper()
	checkStruckMatchesRun(t, circ, nil, seeds...)
}

// checkStruckMatchesRun is checkCompiledMatchesRun for the reference
// struck at the saturated set sat (nil: none). The tableau runs the
// circuit with the struck resets written in — Reset(q) after every
// non-barrier op touching a saturated q — and each original site is
// read after its op's resets.
func checkStruckMatchesRun(t testing.TB, circ *circuit.Circuit, sat []bool, seeds ...uint64) {
	t.Helper()
	comp := stab.Compile(circ, sat)
	written := circuit.New(circ.NumQubits, circ.NumClbits)
	// origOf maps the written index of the last op of each original op's
	// group (its last struck reset, or the op itself) to the original
	// index; firstOf[i] is the written index of original op i.
	origOf := map[int]int{}
	firstOf := make([]int, len(circ.Ops))
	for i, op := range circ.Ops {
		firstOf[i] = len(written.Ops)
		written.Ops = append(written.Ops, op)
		if op.Kind != circuit.KindBarrier {
			for _, q := range op.Qubits {
				if sat != nil && sat[q] {
					written.Ops = append(written.Ops, circuit.Op{Kind: circuit.KindReset, Qubits: []int{q}, Clbit: -1})
				}
			}
		}
		origOf[len(written.Ops)-1] = i
	}
	for _, seed := range seeds {
		coins := comp.Coins(seed)
		got := comp.Reference(coins)
		sites := 0
		want := stab.RunReference(written, seed, func(wi int, tab *stab.Tableau) {
			i, ok := origOf[wi]
			if !ok || t.Failed() {
				return
			}
			for j, q := range circ.Ops[i].Qubits {
				site := comp.SiteBase[i] + j
				sites++
				if g, w := comp.SiteZ(site, coins), tab.ExpectationZ(q); g != w {
					t.Errorf("seed %d op %d qubit %d: compiled Z = %d, tableau %d", seed, i, q, g, w)
				}
				xs, zs, ok := tab.AnticommutingStabilizer(q)
				br, has := comp.Branch(site)
				if ok != has {
					t.Errorf("seed %d op %d qubit %d: branch operator present %v, tableau superposed %v",
						seed, i, q, has, ok)
				} else if ok && (!slices.Equal(ints(br.Xs), xs) || !slices.Equal(ints(br.Zs), zs)) {
					t.Errorf("seed %d op %d qubit %d: branch supports X%v Z%v, tableau X%v Z%v",
						seed, i, q, br.Xs, br.Zs, xs, zs)
				}
				if sat != nil && sat[q] && (has || comp.SiteZ(site, coins) != 1) {
					t.Errorf("seed %d op %d qubit %d: saturated site reads Z = %d, branch present %v, want +1 and none",
						seed, i, q, comp.SiteZ(site, coins), has)
				}
			}
		})
		if t.Failed() {
			return
		}
		if sites != comp.NumSites {
			t.Fatalf("seed %d: observer saw %d sites, compiled numbers %d", seed, sites, comp.NumSites)
		}
		if !slices.Equal(got.Record, want.Record) {
			t.Fatalf("seed %d: record %v, tableau %v", seed, got.Record, want.Record)
		}
		if !slices.Equal(got.Deterministic, want.Deterministic) {
			t.Fatalf("seed %d: determinism flags %v, tableau %v", seed, got.Deterministic, want.Deterministic)
		}
		wantIndex := make([]int, len(circ.Ops))
		for i, wi := range firstOf {
			wantIndex[i] = want.MeasIndex[wi]
		}
		if !slices.Equal(got.MeasIndex, wantIndex) {
			t.Fatalf("seed %d: MeasIndex %v, tableau %v", seed, got.MeasIndex, wantIndex)
		}
	}
}

// ints widens a compiled support list to AnticommutingStabilizer's type.
func ints(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

func seedRange(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	return seeds
}

// figureCircuits transpiles every (code, topology) pair fig5–fig8 and
// memory run, keyed by name. TestCompilesPerFigure holds the list to
// the figures' own circuit counts.
func figureCircuits(t *testing.T) map[string]*circuit.Circuit {
	t.Helper()
	out := map[string]*circuit.Circuit{}
	add := func(code *qec.Code, err error, topos ...arch.Topology) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range topos {
			tr, err := arch.Transpile(code.Circ, topo)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/r%d/%s", code.Name, code.Rounds, topo.Name)] = tr.Circuit
		}
	}
	rep := func(d, rounds int) (*qec.Code, error) { return qec.NewRepetitionRounds(d, rounds) }
	xxzz := func(dz, dx, rounds int) (*qec.Code, error) { return qec.NewXXZZRounds(dz, dx, rounds) }
	// fig5
	c, err := rep(5, 2)
	add(c, err, arch.Mesh(5, 2))
	c, err = xxzz(3, 3, 2)
	add(c, err, arch.Mesh(5, 4))
	// fig6, and fig7's two codes among them
	for _, d := range qec.RepetitionDistances() {
		c, err = rep(d, 2)
		add(c, err, arch.Mesh(5, 6))
	}
	for _, dd := range qec.XXZZDistances() {
		c, err = xxzz(dd[0], dd[1], 2)
		add(c, err, arch.Mesh(5, 6))
	}
	// fig8
	c, err = rep(11, 2)
	add(c, err, exp.Fig8RepTopologies()...)
	c, err = xxzz(3, 3, 2)
	add(c, err, exp.Fig8XXZZTopologies()...)
	// memory: the round ladder plus rounds = d
	for _, rounds := range []int{2, 3, 4, 5, 6, 8, 9} {
		if rounds != 9 {
			c, err = rep(5, rounds)
			add(c, err, arch.Mesh(5, 6))
		}
		if rounds != 5 {
			c, err = rep(9, rounds)
			add(c, err, arch.Mesh(5, 6))
		}
		if rounds != 5 && rounds != 9 {
			c, err = xxzz(3, 3, rounds)
			add(c, err, arch.Mesh(5, 6))
		}
	}
	return out
}

// TestCompiledReferenceMatchesRunOnFigures is the differential test on
// the circuits the figures actually run: each code on each of its
// topologies, 64 seeds, and struck at a multi-qubit saturated set.
func TestCompiledReferenceMatchesRunOnFigures(t *testing.T) {
	seeds := seedRange(64)
	if testing.Short() {
		seeds = seeds[:4]
	}
	for name, circ := range figureCircuits(t) {
		t.Run(name, func(t *testing.T) {
			checkCompiledMatchesRun(t, circ, seeds...)
			// Struck at every fifth qubit: single roots and multi-erasure
			// sets meet the same resets.
			sat := make([]bool, circ.NumQubits)
			for q := 2; q < len(sat); q += 5 {
				sat[q] = true
			}
			checkStruckMatchesRun(t, circ, sat, seeds[:4]...)
		})
	}
}

// randomClifford decodes bytes into a Clifford circuit on at most 12
// qubits with mid-circuit measurements and resets: the first byte picks
// the width, then each op takes one byte for its kind and one per
// qubit. Any byte string is a valid circuit, so the fuzzer and the
// seeded property test share it.
func randomClifford(data []byte) *circuit.Circuit {
	if len(data) == 0 {
		data = []byte{0}
	}
	n := 1 + int(data[0])%12
	data = data[1:]
	c := circuit.New(n, 0)
	clbits := 0
	for _, b := range data {
		if b%10 == 8 {
			clbits++
		}
	}
	c.AddCReg("c", clbits)
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	bit := 0
	for len(data) > 0 {
		kind := next() % 10
		q := next() % n
		q2 := next() % n
		if q2 == q {
			q2 = (q + 1) % n
		}
		switch {
		case kind == 0:
			c.H(q)
		case kind == 1:
			c.S(q)
		case kind == 2:
			c.X(q)
		case kind == 3:
			c.Y(q)
		case kind == 4:
			c.Z(q)
		case kind == 8 && bit < clbits:
			c.Measure(q, bit)
			bit++
		case kind == 9:
			c.Reset(q)
		case n == 1:
			c.H(q)
		case kind == 5:
			c.CNOT(q, q2)
		case kind == 6:
			c.CZ(q, q2)
		default:
			c.SWAP(q, q2)
		}
	}
	return c
}

// randomCliffordBytes draws a circuit encoding of the given length from
// a seeded stream.
func randomCliffordBytes(seed uint64, length int) []byte {
	src := rng.New(seed)
	data := make([]byte, length)
	for i := range data {
		data[i] = byte(src.Uint64())
	}
	return data
}

// regressionSeeds are property-test seeds that once failed; they run
// first and stay forever. (None has failed yet.)
var regressionSeeds = []uint64{}

// TestCompiledReferenceMatchesRunOnRandomCliffords is the differential
// test as a property over random Clifford circuits.
func TestCompiledReferenceMatchesRunOnRandomCliffords(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	seeds := slices.Clone(regressionSeeds)
	for i := 0; i < n; i++ {
		seeds = append(seeds, uint64(i)+1000)
	}
	for _, seed := range seeds {
		circ := randomClifford(randomCliffordBytes(seed, 30+int(seed%7)*60))
		checkCompiledMatchesRun(t, circ, seedRange(8)...)
		checkStruckMatchesRun(t, circ, maskSet(circ.NumQubits, uint16(seed*0x9e37)), seedRange(4)...)
		if t.Failed() {
			t.Fatalf("circuit seed %d fails (add it to regressionSeeds):\n%s", seed, circ)
		}
	}
}

// FuzzCompiledReferenceMatchesRun: the unstruck reference, and the one
// struck at the saturated set the input's mask draws (bit q of mask
// saturates qubit q), against the tableau run of the same circuit.
func FuzzCompiledReferenceMatchesRun(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(randomCliffordBytes(seed, 120), seed, uint16(seed*0x9e37))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, mask uint16) {
		if len(data) > 4096 {
			t.Skip("longer than any circuit worth a tableau run per input")
		}
		circ := randomClifford(data)
		checkCompiledMatchesRun(t, circ, seed, seed+1)
		checkStruckMatchesRun(t, circ, maskSet(circ.NumQubits, mask), seed, seed+1)
	})
}

// maskSet is the saturated set whose qubit q is bit q of mask.
func maskSet(n int, mask uint16) []bool {
	sat := make([]bool, n)
	for q := range sat {
		sat[q] = mask>>q&1 == 1
	}
	return sat
}

// TestCompiledReferenceMoreThan64Coins: no code in the repo flips more
// than 8 coins per execution, so the multi-word dependency sets need a
// synthetic circuit. Each of 70 rounds flips a coin by measurement and
// one by reset, folds the measured one into an accumulator qubit, and
// the accumulator's final measurement depends on coins in both words.
func TestCompiledReferenceMoreThan64Coins(t *testing.T) {
	const rounds = 70
	c := circuit.New(3, rounds+1)
	for k := 0; k < rounds; k++ {
		c.H(0)
		c.Measure(0, k)
		c.CNOT(0, 2)
		c.Reset(0)
		c.H(1)
		c.Reset(1)
	}
	c.Measure(2, rounds)
	if got := stab.Compile(c, nil).NumCoins; got != 2*rounds {
		t.Fatalf("NumCoins = %d, want %d", got, 2*rounds)
	}
	checkCompiledMatchesRun(t, c, seedRange(64)...)
}

// TestCompileBytesFollowCoins: a compile's coin rows are as wide as the
// circuit's coins, not as its count of measurements and resets. Each
// round of the synthetic circuit measures and resets eight qubits in
// |0>, which flips no coin; one measurement after a Hadamard flips the
// only one. Doubling the rounds then about doubles what
// Compile allocates (each op adds a fixed number of sites), where rows
// sized from the measurements and resets would widen with the rounds
// too and come near four times.
func TestCompileBytesFollowCoins(t *testing.T) {
	build := func(rounds int) *circuit.Circuit {
		c := circuit.New(9, 8*rounds+1)
		c.H(8)
		c.Measure(8, 8*rounds)
		for r := 0; r < rounds; r++ {
			for q := 0; q < 8; q++ {
				c.Measure(q, 8*r+q)
				c.Reset(q)
			}
		}
		return c
	}
	bytesOf := func(c *circuit.Circuit) uint64 {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if got := stab.Compile(c, nil).NumCoins; got != 1 {
				t.Fatalf("NumCoins = %d, want 1", got)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	checkCompiledMatchesRun(t, build(40), seedRange(4)...)
	small, large := bytesOf(build(40)), bytesOf(build(80))
	t.Logf("Compile allocates %d B at 40 rounds, %d B at 80", small, large)
	if ratio := float64(large) / float64(small); ratio > 2.5 {
		t.Fatalf("Compile allocates %d B at 40 rounds and %d B at 80: %.2fx for twice the ops", small, large, ratio)
	}
}

// TestCompilesPerFigure: the compiled reference is built once per
// transpiled circuit, and once per saturated set that strikes one of
// its superposed sites, however many points, seeds and workers share
// them. fig8's 2470 points make 132 compiles: its 12 circuits, plus one
// struck reference for each XXZZ (cell, root) whose t=0 sample saturates
// a root the reference holds superposed somewhere (120; the repetition
// cells hold only Z eigenstates and add none). A cache keyed by seed or
// by point, or none, fails this. A transpiled circuit lives in package
// exp's code registry for as long as the process does, so campaigns
// share it too: of fig5's two circuits, xxzz-(3,3) on mesh-5x4 is one
// fig8 already compiled, struck at fig5's root included, and a second
// fig8 compiles nothing.
func TestCompilesPerFigure(t *testing.T) {
	fig5, _ := exp.Find("fig5")
	fig8, _ := exp.Find("fig8")
	for _, g := range []struct {
		name string
		run  func(exp.Config) (*exp.Table, error)
		want int64
	}{
		{"fig8", fig8.Run, 132},
		{"fig5", fig5.Run, 1},
		{"fig8 again", fig8.Run, 0},
	} {
		before := stab.CompileCount()
		if _, err := g.run(exp.Config{Shots: 64, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if got := stab.CompileCount() - before; got != g.want {
			t.Errorf("%s compiled %d references, want %d", g.name, got, g.want)
		}
	}
}

// TestConcurrentRunnersCompileOnce: two workers reach a fresh circuit
// together in every sweep; eight do here, and one compile serves them.
func TestConcurrentRunnersCompileOnce(t *testing.T) {
	code, err := qec.NewXXZZRounds(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	circ := code.Circ.Clone()
	before := stab.CompileCount()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			<-start
			frame.NewBatch(circ, noise.NewDepolarizing(0.01), nil, seed)
		}(uint64(g))
	}
	close(start)
	wg.Wait()
	if got := stab.CompileCount() - before; got != 1 {
		t.Fatalf("8 concurrent simulators of one fresh circuit compiled %d times, want 1", got)
	}
}

// TestCompiledOfFollowsTheCircuit: an op appended after first use
// yields a fresh compile, and a clone compiles its own.
func TestCompiledOfFollowsTheCircuit(t *testing.T) {
	c := circuit.New(1, 2)
	c.H(0)
	c.Measure(0, 0)
	first := stab.CompiledOf(c)
	if stab.CompiledOf(c) != first {
		t.Fatal("second use recompiled an unchanged circuit")
	}
	cl := c.Clone()
	if stab.CompiledOf(cl) == first {
		t.Fatal("a clone shares its original's compiled reference")
	}
	c.Measure(0, 1)
	second := stab.CompiledOf(c)
	if second == first || len(second.Deterministic) != 2 {
		t.Fatalf("after an append: same object %v, %d measurements compiled, want a fresh one with 2",
			second == first, len(second.Deterministic))
	}
	if got := stab.CompiledOf(cl); len(got.Deterministic) != 1 {
		t.Fatalf("the clone's reference followed the original's append: %d measurements", len(got.Deterministic))
	}
}

// TestCompiledCollectedWithCircuit: the compiled reference hangs off
// its circuit and nothing else, so both are garbage at the first
// collection after the circuit is dropped. A package-level cache keyed
// by circuit would keep every campaign's references in a daemon's heap.
func TestCompiledCollectedWithCircuit(t *testing.T) {
	code, err := qec.NewXXZZRounds(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	circ := code.Circ.Clone()
	sim := frame.NewBatch(circ, noise.NewDepolarizing(0.01), nil, 3)
	goneCirc, goneComp := weak.Make(circ), weak.Make(stab.CompiledOf(circ))
	runtime.KeepAlive(sim)
	sim, circ = nil, nil
	runtime.GC()
	if goneCirc.Value() != nil || goneComp.Value() != nil {
		t.Fatalf("after dropping the circuit and its simulator: circuit alive %v, compiled reference alive %v",
			goneCirc.Value() != nil, goneComp.Value() != nil)
	}
}

// TestStruckOfCompilesOnlyWhereItMatters: a saturated set whose qubits
// hold only Z eigenstates in the unstruck reference (every repetition
// qubit) gets the unstruck reference back and compiles nothing; a set
// striking a superposed site compiles once and is served from the
// circuit's memo after, until more than MaxStruck newer sets push it out.
func TestStruckOfCompilesOnlyWhereItMatters(t *testing.T) {
	rep, err := qec.NewRepetitionRounds(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	rc := rep.Circ.Clone()
	base := stab.CompiledOf(rc)
	all := make([]bool, rc.NumQubits)
	for q := range all {
		all[q] = true
	}
	before := stab.CompileCount()
	if stab.StruckOf(rc, all) != base || stab.CompileCount() != before {
		t.Fatal("a strike on Z eigenstates only compiled a struck reference")
	}

	x, err := qec.NewXXZZRounds(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	xc := x.Circ.Clone()
	xbase := stab.CompiledOf(xc)
	single := func(q int) []bool {
		sat := make([]bool, xc.NumQubits)
		sat[q] = true
		return sat
	}
	before = stab.CompileCount()
	struck, first := 0, -1
	for q := 0; q < xc.NumQubits; q++ {
		c := stab.StruckOf(xc, single(q))
		if c == xbase {
			continue
		}
		struck++
		if first < 0 {
			first = q
		}
		if stab.StruckOf(xc, single(q)) != c {
			t.Fatalf("qubit %d: a second ask for the same set got a different reference", q)
		}
	}
	if struck == 0 {
		t.Fatal("no XXZZ qubit has a superposed site")
	}
	if got := stab.CompileCount() - before; got != int64(struck) {
		t.Fatalf("%d struck sets compiled %d times", struck, got)
	}
	// Push the first set out: MaxStruck newer sets, each the first
	// superposed qubit plus the others that bits of m+1 pick (distinct
	// and non-empty for every m).
	kept := stab.StruckOf(xc, single(first))
	for m := 1; m <= stab.MaxStruck; m++ {
		sat := single(first)
		for b := 0; m>>b > 0; b++ {
			if m>>b&1 == 1 {
				sat[(first+1+b)%xc.NumQubits] = true
			}
		}
		stab.StruckOf(xc, sat)
	}
	before = stab.CompileCount()
	if again := stab.StruckOf(xc, single(first)); again == kept || stab.CompileCount()-before != 1 {
		t.Fatalf("after %d newer sets the oldest was still held (same object %v)", stab.MaxStruck, again == kept)
	}
}
