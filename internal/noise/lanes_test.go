package noise

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"radqec/internal/rng"
)

// The distribution tests below run at fixed seeds, and every bound is
// one a correct sampler exceeds with probability under 1e-8 per check
// (6σ two-sided is 2e-9; the chi-square values are the 1 − 1e-8
// quantiles), so each test as a whole passes with probability above
// 1 − 1e-6 on a seed nobody picked: a failure means the sampler, not
// the seed.
const (
	zBound     = 6.0
	chi2Df2    = 36.84
	chi2Df7    = 50.81
	chi2Df8    = 53.17
	chi2Df64   = 148.95
	evenLanes  = 0x5555555555555555
	belowBound = laneGapBoundary - 1.0/(1<<40) // the largest gap-arm p the tests use
)

// near reports whether a count is within the z bound of its mean. The
// additive slack covers means of a few events or fewer, where the count
// is Poisson and 6√μ alone is not a 1e-8 bound.
func near(obs, mean, variance float64) bool {
	return math.Abs(obs-mean) <= zBound*math.Sqrt(variance)+zBound
}

// chainPairVar is the variance of Σ X_i·X_{i+1} over a chain of m
// adjacent pairs of iid Bernoulli(p) bits (neighbouring pairs share a
// bit, so they are positively correlated).
func chainPairVar(m, p float64) float64 {
	p2, p3, p4 := p*p, p*p*p, p*p*p*p
	return m*(p2-p4) + 2*(m-1)*(p3-p4)
}

// laneStats are the sufficient statistics the lane-sampler tests read
// off a stream of site-words.
type laneStats struct {
	perLane   [64]float64
	total     float64
	lanePairs float64 // flat-stream neighbours (lane l, l+1; 63 → next word's 0) both fired
	sitePairs float64 // one lane fired at two consecutive sites
}

// drawLaneStats samples n site-words of one process the way the kernel
// does — one cursor, started once, carried from word to word.
func drawLaneStats(s LaneSampler, seed uint64, n int) laneStats {
	src := rng.New(seed)
	var cur int64
	if s.Arm == LaneGaps {
		cur = s.Start(src)
	}
	var st laneStats
	var prev uint64
	for i := 0; i < n; i++ {
		w := s.Word(src, &cur)
		for m := w; m != 0; m &= m - 1 {
			st.perLane[bits.TrailingZeros64(m)]++
		}
		st.total += float64(bits.OnesCount64(w))
		st.lanePairs += float64(bits.OnesCount64(w&(w>>1))) + float64((prev>>63)&w&1)
		st.sitePairs += float64(bits.OnesCount64(prev & w))
		prev = w
	}
	return st
}

func TestLanesPicksTheArmFromP(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want LaneArm
	}{
		{math.NaN(), LaneNever}, {-1, LaneNever}, {0, LaneNever},
		{1e-300, LaneGaps}, {1e-4, LaneGaps}, {0.01, LaneGaps}, {0.03, LaneGaps}, {belowBound, LaneGaps},
		{1.0 / 32, LaneWord}, {0.05, LaneWord}, {0.1, LaneWord}, {0.5, LaneWord}, {math.Nextafter(1, 0), LaneWord},
		{1, LaneAlways}, {2, LaneAlways},
	} {
		if got := Lanes(c.p).Arm; got != c.want {
			t.Errorf("Lanes(%v).Arm = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestLaneSamplerDegenerateArmsDrawNothing(t *testing.T) {
	src := rng.New(3)
	before := *src
	cur := int64(7)
	never, always := Lanes(0), Lanes(1)
	for i := 0; i < 100; i++ {
		if w := never.Word(src, &cur); w != 0 {
			t.Fatalf("p = 0 fired %x", w)
		}
		if w := always.Word(src, &cur); w != ^uint64(0) {
			t.Fatalf("p = 1 fired %x", w)
		}
	}
	if *src != before || cur != 7 {
		t.Fatal("a degenerate arm consumed randomness or moved the cursor")
	}
	// A vanishing rate is a gap process whose first event never comes.
	tiny := Lanes(1e-300)
	cur = tiny.Start(src)
	for i := 0; i < 1000; i++ {
		if w := tiny.Word(src, &cur); w != 0 {
			t.Fatalf("p = 1e-300 fired %x", w)
		}
	}
}

// TestLaneSamplerMatchesBernoulliLanes is the byte-identity test's
// replacement for the arms that moved: on both sides of the boundary,
// the words are 64 iid Bernoulli(p) lanes — each lane's count is
// binomial (chi-square over the lanes), and neighbours are independent
// both along the flat (site, lane) stream the cursor walks, word
// boundary and cursor carry included, and along one lane across
// consecutive sites.
func TestLaneSamplerMatchesBernoulliLanes(t *testing.T) {
	for i, p := range []float64{1e-4, 1e-2, belowBound, 1.0 / 32, 0.1, 0.5, 1 - 1e-3} {
		n := 1 << 18
		if p < 1e-3 {
			n = 1 << 21 // ~200 events per lane
		}
		st := drawLaneStats(Lanes(p), 100+uint64(i), n)
		nf := float64(n)
		chi2 := 0.0
		for _, c := range st.perLane {
			chi2 += (c - nf*p) * (c - nf*p) / (nf * p * (1 - p))
		}
		if chi2 > chi2Df64 {
			t.Errorf("p=%v: per-lane counts chi-square %.1f over 64 lanes, bound %v", p, chi2, chi2Df64)
		}
		if !near(st.total, 64*nf*p, 64*nf*p*(1-p)) {
			t.Errorf("p=%v: %v events in %d words, want %v", p, st.total, n, 64*nf*p)
		}
		if m := 64*nf - 1; !near(st.lanePairs, m*p*p, chainPairVar(m, p)) {
			t.Errorf("p=%v: %v adjacent-lane pairs, want %v", p, st.lanePairs, m*p*p)
		}
		if m := nf - 1; !near(st.sitePairs, 64*m*p*p, 64*chainPairVar(m, p)) {
			t.Errorf("p=%v: %v adjacent-site pairs, want %v", p, st.sitePairs, 64*m*p*p)
		}
	}
}

// TestLaneSamplerArmsAgreeAtTheBoundary puts the two arms side by side
// where the rule switches: just below 1/32 the gap arm, at 1/32 the word
// arm, the same process to ten digits.
func TestLaneSamplerArmsAgreeAtTheBoundary(t *testing.T) {
	const n = 1 << 19
	const p = laneGapBoundary
	gaps, word := Lanes(belowBound), Lanes(p)
	if gaps.Arm != LaneGaps || word.Arm != LaneWord {
		t.Fatalf("arms %d, %d: the boundary moved", gaps.Arm, word.Arm)
	}
	a, b := drawLaneStats(gaps, 21, n), drawLaneStats(word, 22, n)
	for _, c := range []struct {
		name     string
		a, b     float64
		variance float64
	}{
		{"events", a.total, b.total, 64 * n * p * (1 - p)},
		{"adjacent-lane pairs", a.lanePairs, b.lanePairs, chainPairVar(64*n-1, p)},
		{"adjacent-site pairs", a.sitePairs, b.sitePairs, 64 * chainPairVar(n-1, p)},
	} {
		if !near(c.a-c.b, 0, 2*c.variance) {
			t.Errorf("%s: gap arm %v, word arm %v", c.name, c.a, c.b)
		}
	}
}

// TestLaneSamplerCursorCarriesLikeIndependentWords: three consecutive
// sites of one process, one cursor carried across them, have the joint
// law of three independent Bernoulli words — each lane's (fired at site
// 1, 2, 3) pattern lands in its one of eight cells with probability
// p^fired·(1−p)^(3−fired).
func TestLaneSamplerCursorCarriesLikeIndependentWords(t *testing.T) {
	const p = 0.02
	const triples = 1 << 18
	s := Lanes(p)
	src := rng.New(31)
	cur := s.Start(src)
	var cells [8]float64
	for i := 0; i < triples; i++ {
		var w [3]uint64
		for j := range w {
			w[j] = s.Word(src, &cur)
		}
		for c := range cells {
			m := ^uint64(0)
			for j, wj := range w {
				if c>>uint(j)&1 == 1 {
					m &= wj
				} else {
					m &^= wj
				}
			}
			cells[c] += float64(bits.OnesCount64(m))
		}
	}
	chi2 := 0.0
	for c, obs := range cells {
		fired := bits.OnesCount(uint(c))
		want := 64 * triples * math.Pow(p, float64(fired)) * math.Pow(1-p, float64(3-fired))
		chi2 += (obs - want) * (obs - want) / want
	}
	if chi2 > chi2Df7 {
		t.Fatalf("joint law of three carried sites: chi-square %.1f over 8 cells, bound %v (cells %v)", chi2, chi2Df7, cells)
	}
}

// TestPauliWordsUniformIndependentExact: every error lane gets exactly
// one of X, Y, Z (a lane that drew 00 is redrawn, never left
// unflipped), no other lane is touched, the three types are uniform in
// total and lane by lane, and neighbouring lanes' types are
// independent.
func TestPauliWordsUniformIndependentExact(t *testing.T) {
	src, masks := rng.New(41), rng.New(42)
	var types [3]float64   // X, Y, Z over all error lanes
	var joint [9]float64   // types of disjoint neighbour pairs (2l, 2l+1)
	var errsAt [64]float64 // errors seen per lane
	var xOrYAt [64]float64 // of which flipped X
	densities := []float64{0.1, 0.5, 1}
	for i := 0; i < 1<<17; i++ {
		errs := masks.BernoulliWord(rng.Threshold(densities[i%len(densities)]))
		xs, zs := PauliWords(src, errs)
		if xs|zs != errs {
			t.Fatalf("errs %064b: flipped %064b — an error lane left alone or a clean lane flipped", errs, xs|zs)
		}
		kind := [3]uint64{xs &^ zs, xs & zs, zs &^ xs}
		for a, ka := range kind {
			types[a] += float64(bits.OnesCount64(ka))
			for b, kb := range kind {
				joint[3*a+b] += float64(bits.OnesCount64(ka & (kb >> 1) & evenLanes))
			}
		}
		for m := errs; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			errsAt[l]++
			xOrYAt[l] += float64(xs >> uint(l) & 1)
		}
	}
	uniform := func(cells []float64) float64 {
		sum := 0.0
		for _, c := range cells {
			sum += c
		}
		want, chi2 := sum/float64(len(cells)), 0.0
		for _, c := range cells {
			chi2 += (c - want) * (c - want) / want
		}
		return chi2
	}
	if chi2 := uniform(types[:]); chi2 > chi2Df2 {
		t.Errorf("X/Y/Z totals %v: chi-square %.1f, bound %v", types, chi2, chi2Df2)
	}
	if chi2 := uniform(joint[:]); chi2 > chi2Df8 {
		t.Errorf("neighbour-lane type pairs %v: chi-square %.1f, bound %v", joint, chi2, chi2Df8)
	}
	chi2 := 0.0
	for l, n := range errsAt {
		d := xOrYAt[l] - n*2/3
		chi2 += d * d / (n * 2 / 9)
	}
	if chi2 > chi2Df64 {
		t.Errorf("per-lane X-flip share: chi-square %.1f over 64 lanes, bound %v", chi2, chi2Df64)
	}
	// No error, no draw.
	before := *src
	if xs, zs := PauliWords(src, 0); xs|zs != 0 || *src != before {
		t.Error("an empty error word flipped a lane or consumed randomness")
	}
}

// BenchmarkLaneSamplerWord times the tile kernel's dense draws per
// site-word: the word arm at the boundary (1/32), at threshold's
// depolarizing column (0.1) and at a fair coin (0.5), and the dense
// depolarizing pair — an error word at 0.1 and its Pauli types.
func BenchmarkLaneSamplerWord(b *testing.B) {
	for _, p := range []float64{1.0 / 32, 0.1, 0.5} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			s, src := Lanes(p), rng.New(1)
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= s.Word(src, nil)
			}
			benchSink = sink
		})
	}
	b.Run("depolarizing", func(b *testing.B) {
		s, src := Lanes(0.1), rng.New(1)
		var sink uint64
		for i := 0; i < b.N; i++ {
			xs, zs := PauliWords(src, s.Word(src, nil))
			sink ^= xs ^ zs
		}
		benchSink = sink
	})
}

var benchSink uint64
