package rng

import (
	"math"
	"math/bits"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for different seeds coincide %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	var acc uint64
	for i := 0; i < 100; i++ {
		acc |= s.Uint64()
	}
	if acc == 0 {
		t.Fatal("seed 0 produced an all-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams coincide %d/100 times", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	a := New(9).Split(5)
	b := New(9).Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams diverged at step %d", i)
		}
	}
}

func TestSplitDoesNotDisturbParent(t *testing.T) {
	a := New(3)
	b := New(3)
	_ = a.Split(99)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split mutated parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(12)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(13)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	s := New(14)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d draws, want ~%v", i, c, want)
		}
	}
}

func TestBoolEdgeCases(t *testing.T) {
	s := New(15)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) fired")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) did not fire")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) fired")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) did not fire")
		}
	}
}

func TestBoolRate(t *testing.T) {
	s := New(16)
	const p, trials = 0.3, 200000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bool(p) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bool(%v) rate = %v", p, rate)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		x, y, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}

func TestBernoulli64Edges(t *testing.T) {
	s := New(1)
	if got := bernoulli64(s, 0); got != 0 {
		t.Fatalf("p=0 word = %x", got)
	}
	if got := bernoulli64(s, -1); got != 0 {
		t.Fatalf("p<0 word = %x", got)
	}
	if got := bernoulli64(s, 1); got != ^uint64(0) {
		t.Fatalf("p=1 word = %x", got)
	}
	if got := bernoulli64(s, 2); got != ^uint64(0) {
		t.Fatalf("p>1 word = %x", got)
	}
	before := *s
	if got := bernoulli64(s, math.NaN()); got != 0 || *s != before {
		t.Fatalf("p=NaN word = %x, stream moved %v; NaN never fires and draws nothing", got, *s != before)
	}
}

func TestBernoulli64Deterministic(t *testing.T) {
	a, b := New(9), New(9)
	for i := 0; i < 100; i++ {
		if bernoulli64(a, 0.3) != bernoulli64(b, 0.3) {
			t.Fatal("identical seeds diverged")
		}
	}
}

func TestBernoulli64Rates(t *testing.T) {
	// Per-lane fire rates must match p within binomial error for a wide
	// range of probabilities, including ones far from dyadic grids.
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 1.0 / 3, 0.5, 0.9} {
		s := New(42)
		const words = 30000
		hits := 0
		for i := 0; i < words; i++ {
			hits += bits.OnesCount64(bernoulli64(s, p))
		}
		n := float64(words * 64)
		rate := float64(hits) / n
		// 5 sigma of the binomial.
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(rate-p) > tol {
			t.Fatalf("p=%v: rate %v off by more than %v", p, rate, tol)
		}
	}
}

func TestBernoulli64LaneIndependence(t *testing.T) {
	// Every lane must fire at the same marginal rate (no positional
	// bias from the bit-serial comparison).
	s := New(7)
	const words = 20000
	const p = 0.3
	var perLane [64]int
	for i := 0; i < words; i++ {
		w := bernoulli64(s, p)
		for l := 0; l < 64; l++ {
			perLane[l] += int(w>>l) & 1
		}
	}
	tol := 5 * math.Sqrt(p*(1-p)/float64(words))
	for l, hits := range perLane {
		if rate := float64(hits) / words; math.Abs(rate-p) > tol {
			t.Fatalf("lane %d rate %v off target %v", l, rate, p)
		}
	}
}

func BenchmarkBernoulli64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = bernoulli64(s, 0.01)
	}
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	// SplitInto must produce the exact stream Split returns — the batch
	// engine's word↔seed contract depends on the two derivations never
	// diverging — and reusing one destination across indices must not
	// leak state between derivations.
	parent := New(42)
	parent.Uint64() // derive from a non-fresh parent state
	var dst Source
	for _, index := range []uint64{0, 1, 63, 1 << 40, ^uint64(0)} {
		want := parent.Split(index)
		parent.SplitInto(index, &dst)
		if dst != *want {
			t.Fatalf("index %d: SplitInto state %+v != Split state %+v", index, dst, *want)
		}
		for i := 0; i < 16; i++ {
			if got, w := dst.Uint64(), want.Uint64(); got != w {
				t.Fatalf("index %d draw %d: SplitInto %#x != Split %#x", index, i, got, w)
			}
		}
	}
}

func TestSplitIntoAllocFree(t *testing.T) {
	parent := New(1)
	var dst Source
	allocs := testing.AllocsPerRun(100, func() {
		parent.SplitInto(7, &dst)
		_ = dst.Uint64()
	})
	if allocs != 0 {
		t.Fatalf("SplitInto allocates %v per run, want 0", allocs)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	var s Source
	for _, seed := range []uint64{0, 1, 12345, ^uint64(0)} {
		s.Reseed(seed)
		if want := New(seed); s != *want {
			t.Fatalf("seed %d: Reseed state %+v != New state %+v", seed, s, *want)
		}
	}
}

// bernoulli64 draws one word at probability p, quantising p at the call
// as the frozen reference does.
func bernoulli64(s *Source, p float64) uint64 { return s.BernoulliWord(Threshold(p)) }
